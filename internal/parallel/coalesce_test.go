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

// TestCoalesceCoversAllIndices submits many concurrent batches and checks
// every submission sees each of its own indices exactly once, in its own
// index space — the cross-session isolation the determinism argument in
// coalesce.go rests on.
func TestCoalesceCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 4} {
		c := NewCoalescer(workers, CoalesceOptions{})
		p := c.Pool()
		const sessions = 12
		outs := make([][]int, sessions)
		var wg sync.WaitGroup
		errs := make([]error, sessions)
		for s := 0; s < sessions; s++ {
			n := 1 + s%7
			outs[s] = make([]int, n)
			wg.Add(1)
			go func(s, n int) {
				defer wg.Done()
				errs[s] = p.ForEach(context.Background(), n, func(i int) error {
					outs[s][i] = s*1000 + i
					return nil
				})
			}(s, n)
		}
		wg.Wait()
		c.Close()
		for s, out := range outs {
			if errs[s] != nil {
				t.Fatalf("workers=%d session %d: %v", workers, s, errs[s])
			}
			for i, v := range out {
				if v != s*1000+i {
					t.Fatalf("workers=%d session %d slot %d = %d, want %d", workers, s, i, v, s*1000+i)
				}
			}
		}
	}
}

// TestCoalesceMatchesUncoalesced pins that, at width > 1 and with many
// sessions in flight (run under -race in CI), each session's output is
// byte-identical to the serial uncoalesced run of the same batch: the
// acceptance-criterion identity at the pool layer.
func TestCoalesceMatchesUncoalesced(t *testing.T) {
	const sessions, n = 16, 33
	want := func(s int) []string {
		out := make([]string, n)
		if err := New(1).ForEach(context.Background(), n, func(i int) error {
			out[i] = fmt.Sprintf("s%02d-task-%04d", s, i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}

	c := NewCoalescer(4, CoalesceOptions{})
	defer c.Close()
	p := c.Pool()
	got := make([][]string, sessions)
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		got[s] = make([]string, n)
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			if err := p.ForEach(context.Background(), n, func(i int) error {
				got[s][i] = fmt.Sprintf("s%02d-task-%04d", s, i)
				return nil
			}); err != nil {
				t.Error(err)
			}
		}(s)
	}
	wg.Wait()
	for s := 0; s < sessions; s++ {
		w := want(s)
		for i := range w {
			if got[s][i] != w[i] {
				t.Fatalf("session %d slot %d: coalesced %q != serial %q", s, i, got[s][i], w[i])
			}
		}
	}
}

// TestCoalesceErrorIsolation checks a failing submission returns its own
// first error while concurrent submissions complete untouched.
func TestCoalesceErrorIsolation(t *testing.T) {
	c := NewCoalescer(4, CoalesceOptions{})
	defer c.Close()
	p := c.Pool()
	sentinel := errors.New("session 3 task 2 failed")

	var wg sync.WaitGroup
	errs := make([]error, 8)
	oks := make([]atomic.Int64, 8)
	for s := 0; s < 8; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = p.ForEach(context.Background(), 10, func(i int) error {
				if s == 3 && i == 2 {
					return sentinel
				}
				oks[s].Add(1)
				return nil
			})
		}(s)
	}
	wg.Wait()
	for s := 0; s < 8; s++ {
		if s == 3 {
			if !errors.Is(errs[3], sentinel) {
				t.Fatalf("session 3 err = %v, want %v", errs[3], sentinel)
			}
			continue
		}
		if errs[s] != nil {
			t.Fatalf("session %d err = %v, want nil", s, errs[s])
		}
		if got := oks[s].Load(); got != 10 {
			t.Fatalf("session %d ran %d tasks, want 10", s, got)
		}
	}
}

// TestCoalescePanicIsolation checks a panicking task re-raises on its own
// submitter's goroutine (where transport's session recover lives) and
// does not take down the dispatcher or sibling submissions.
func TestCoalescePanicIsolation(t *testing.T) {
	c := NewCoalescer(4, CoalesceOptions{})
	defer c.Close()
	p := c.Pool()

	panicked := make(chan any, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { panicked <- recover() }()
		_ = p.ForEach(context.Background(), 4, func(i int) error {
			if i == 1 {
				panic("kaboom")
			}
			return nil
		})
	}()
	wg.Wait()
	if v := <-panicked; v != "kaboom" {
		t.Fatalf("submitter recovered %v, want kaboom", v)
	}

	// The coalescer must still serve new submissions after the panic.
	var ran atomic.Int64
	if err := p.ForEach(context.Background(), 5, func(i int) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 5 {
		t.Fatalf("post-panic batch ran %d tasks, want 5", ran.Load())
	}
}

// TestCoalescePreCanceledContext runs nothing under a dead context.
func TestCoalescePreCanceledContext(t *testing.T) {
	c := NewCoalescer(2, CoalesceOptions{})
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := c.Pool().ForEach(ctx, 100, func(i int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d tasks ran under a pre-canceled context", ran.Load())
	}
}

// TestCoalesceCloseDrainsAndFallsBackInline pins Close semantics: pending
// work flushes, and post-Close submissions run inline with correct
// results rather than deadlocking on a dead dispatcher.
func TestCoalesceCloseDrainsAndFallsBackInline(t *testing.T) {
	c := NewCoalescer(2, CoalesceOptions{MaxDelay: time.Hour, MaxTasks: 1 << 20})
	var out [3]int
	done := make(chan error, 1)
	go func() {
		done <- c.Pool().ForEach(context.Background(), 3, func(i int) error {
			out[i] = i + 1
			return nil
		})
	}()
	// The huge MaxDelay/MaxTasks guarantee only Close can flush it.
	time.Sleep(20 * time.Millisecond)
	c.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if out != [3]int{1, 2, 3} {
		t.Fatalf("drained batch wrote %v", out)
	}

	var ran atomic.Int64
	if err := c.Pool().ForEach(context.Background(), 7, func(i int) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 7 {
		t.Fatalf("inline fallback ran %d tasks, want 7", ran.Load())
	}
	c.Close() // idempotent
}

// TestCoalesceSizeTriggerMerges forces the size trigger and checks two
// sessions land in one dispatch.
func TestCoalesceSizeTriggerMerges(t *testing.T) {
	c := NewCoalescer(2, CoalesceOptions{MaxTasks: 4, MaxDelay: time.Hour})
	defer c.Close()
	p := c.Pool()

	// Two 2-task submissions: neither alone reaches MaxTasks=4, so the
	// first must wait (MaxDelay is an hour) until the second arrives.
	var wg sync.WaitGroup
	var ran atomic.Int64
	start := time.Now()
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.ForEach(context.Background(), 2, func(i int) error {
				ran.Add(1)
				return nil
			}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if ran.Load() != 4 {
		t.Fatalf("ran %d tasks, want 4", ran.Load())
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("size trigger took %v; deadline path must not have fired", elapsed)
	}
}

// TestCoalesceDeadlineTriggerFlushesLoneSession checks a single session
// smaller than MaxTasks still completes within ~MaxDelay — the latency
// ceiling a lone session pays.
func TestCoalesceDeadlineTriggerFlushesLoneSession(t *testing.T) {
	c := NewCoalescer(2, CoalesceOptions{MaxTasks: 1 << 20, MaxDelay: 5 * time.Millisecond})
	defer c.Close()
	start := time.Now()
	var ran atomic.Int64
	if err := c.Pool().ForEach(context.Background(), 3, func(i int) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 3 {
		t.Fatalf("ran %d tasks, want 3", ran.Load())
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("lone session waited %v; deadline trigger is broken", elapsed)
	}
}

// TestCoalesceNoGoroutineLeak closes a busy coalescer and requires the
// dispatcher and all dispatch-fleet goroutines to retire.
func TestCoalesceNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	c := NewCoalescer(4, CoalesceOptions{})
	var wg sync.WaitGroup
	for s := 0; s < 8; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = c.Pool().ForEach(context.Background(), 16, func(i int) error { return nil })
		}()
	}
	wg.Wait()
	c.Close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// FuzzCoalesceBatch feeds arbitrary interleavings — submission sizes,
// error injections, and pre-canceled contexts — through a shared
// coalescer and compares every submission against the serial oracle:
// clean submissions must see each index exactly once with the right
// value, failing submissions must return exactly their injected error,
// and no submission may ever touch another's output (ISSUE 10 CI
// satellite).
func FuzzCoalesceBatch(f *testing.F) {
	f.Add([]byte{3, 0, 5, 1, 2, 0})
	f.Add([]byte{1})
	f.Add([]byte{8, 8, 8, 8})
	f.Add([]byte{0, 255, 7, 130})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 64 {
			t.Skip()
		}
		c := NewCoalescer(3, CoalesceOptions{MaxTasks: 6, MaxDelay: time.Millisecond})
		defer c.Close()
		p := c.Pool()

		type sub struct {
			n        int
			errAt    int // -1: no injected error
			canceled bool
		}
		subs := make([]sub, len(data))
		for i, b := range data {
			n := int(b & 0x0f) // 0..15 tasks
			errAt := -1
			if b&0x10 != 0 && n > 0 {
				errAt = int(b>>5) % n
			}
			subs[i] = sub{n: n, errAt: errAt, canceled: b&0x80 != 0 && b&0x10 == 0}
		}

		sentinels := make([]error, len(subs))
		outs := make([][]int64, len(subs))
		errs := make([]error, len(subs))
		var wg sync.WaitGroup
		for s := range subs {
			sentinels[s] = fmt.Errorf("sub %d failed", s)
			outs[s] = make([]int64, subs[s].n)
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				ctx := context.Background()
				if subs[s].canceled {
					var cancel context.CancelFunc
					ctx, cancel = context.WithCancel(ctx)
					cancel()
				}
				errs[s] = p.ForEach(ctx, subs[s].n, func(i int) error {
					if i < 0 || i >= subs[s].n {
						t.Errorf("sub %d saw out-of-range index %d", s, i)
						return nil
					}
					if subs[s].errAt == i {
						return sentinels[s]
					}
					atomic.AddInt64(&outs[s][i], int64(s*1000+i+1))
					return nil
				})
			}(s)
		}
		wg.Wait()

		for s := range subs {
			switch {
			case subs[s].n == 0:
				if errs[s] != nil {
					t.Fatalf("sub %d (n=0) err = %v", s, errs[s])
				}
			case subs[s].canceled:
				if !errors.Is(errs[s], context.Canceled) {
					t.Fatalf("sub %d err = %v, want context.Canceled", s, errs[s])
				}
				for i, v := range outs[s] {
					if v != 0 {
						t.Fatalf("pre-canceled sub %d slot %d written (%d)", s, i, v)
					}
				}
			case subs[s].errAt >= 0:
				if !errors.Is(errs[s], sentinels[s]) {
					t.Fatalf("sub %d err = %v, want its own sentinel", s, errs[s])
				}
				// Slots that DID run must still hold only this sub's values.
				for i, v := range outs[s] {
					if v != 0 && v != int64(s*1000+i+1) {
						t.Fatalf("failing sub %d slot %d corrupted: %d", s, i, v)
					}
				}
			default:
				if errs[s] != nil {
					t.Fatalf("clean sub %d err = %v", s, errs[s])
				}
				for i, v := range outs[s] {
					if v != int64(s*1000+i+1) {
						t.Fatalf("clean sub %d slot %d = %d, want %d (exactly-once violated)",
							s, i, v, s*1000+i+1)
					}
				}
			}
		}
	})
}
