package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestForEachCoversAllIndices runs widths around the worker count and
// checks every index is visited exactly once with results landing in the
// slot the index owns (the determinism contract).
func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			p := New(workers)
			out := make([]int, n)
			err := p.ForEach(context.Background(), n, func(i int) error {
				out[i] = i * i
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for i := range out {
				if out[i] != i*i {
					t.Fatalf("workers=%d n=%d: slot %d = %d, want %d", workers, n, i, out[i], i*i)
				}
			}
		}
	}
}

// TestForEachDeterministicVsSerial pins that a parallel run produces the
// byte-identical output of the serial run for the same inputs.
func TestForEachDeterministicVsSerial(t *testing.T) {
	const n = 257
	run := func(p *Pool) []string {
		out := make([]string, n)
		if err := p.ForEach(context.Background(), n, func(i int) error {
			out[i] = fmt.Sprintf("task-%04d", i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial, par := run(New(1)), run(New(8))
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("slot %d: serial %q != parallel %q", i, serial[i], par[i])
		}
	}
}

// TestForEachFirstError checks the first failure is the returned error
// and that dispatch of new indices stops after it.
func TestForEachFirstError(t *testing.T) {
	sentinel := errors.New("task 5 failed")
	var started atomic.Int64
	p := New(4)
	err := p.ForEach(context.Background(), 10_000, func(i int) error {
		started.Add(1)
		if i == 5 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
	// Dispatch must stop well short of the full batch: the failing task
	// cancels, and each worker observes the cancel before its next pull.
	if s := started.Load(); s == 10_000 {
		t.Fatalf("all %d tasks ran despite an early error", s)
	}
}

// TestForEachSerialErrorStopsImmediately pins the inline path: with one
// worker, nothing after the failing index runs.
func TestForEachSerialErrorStopsImmediately(t *testing.T) {
	sentinel := errors.New("boom")
	var ran []int
	err := New(1).ForEach(context.Background(), 100, func(i int) error {
		ran = append(ran, i)
		if i == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
	if len(ran) != 4 {
		t.Fatalf("ran %v, want exactly [0 1 2 3]", ran)
	}
}

// TestForEachCancellation cancels mid-batch and requires a prompt return
// with the context's error and no leaked goroutines afterwards.
func TestForEachCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	var inFlight sync.WaitGroup
	inFlight.Add(4)

	done := make(chan error, 1)
	go func() {
		done <- New(4).ForEach(ctx, 10_000, func(i int) error {
			if i < 4 {
				inFlight.Done()
				<-release // first wave blocks until the test releases it
			}
			return nil
		})
	}()

	inFlight.Wait() // all workers are mid-task
	cancel()
	close(release)

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ForEach did not return promptly after cancel")
	}

	// All worker goroutines must be joined. Allow the runtime a moment to
	// retire them before comparing counts.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestForEachPreCanceledContext runs nothing when the context is already
// dead — including on the serial inline path.
func TestForEachPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := New(workers).ForEach(ctx, 100, func(i int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if r := ran.Load(); r != 0 {
			t.Fatalf("workers=%d: %d tasks ran under a pre-canceled context", workers, r)
		}
	}
}

// TestNilPoolUsesDefault exercises the nil-receiver path batch APIs rely
// on, and SetDefaultWorkers' effect on it.
func TestNilPoolUsesDefault(t *testing.T) {
	defer SetDefaultWorkers(0)
	SetDefaultWorkers(2)
	if w := Default().Workers(); w != 2 {
		t.Fatalf("default workers = %d, want 2", w)
	}
	var p *Pool
	var ran atomic.Int64
	if err := p.ForEach(context.Background(), 10, func(i int) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 10 {
		t.Fatalf("ran %d tasks, want 10", ran.Load())
	}
	SetDefaultWorkers(0)
	if w := Default().Workers(); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("default workers after reset = %d, want GOMAXPROCS=%d", w, runtime.GOMAXPROCS(0))
	}
}

// TestNewClampsWidth pins the GOMAXPROCS fallback.
func TestNewClampsWidth(t *testing.T) {
	if w := New(0).Workers(); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("New(0) workers = %d, want GOMAXPROCS", w)
	}
	if w := New(-3).Workers(); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("New(-3) workers = %d, want GOMAXPROCS", w)
	}
	if w := New(7).Workers(); w != 7 {
		t.Fatalf("New(7) workers = %d, want 7", w)
	}
}
