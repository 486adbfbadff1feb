package cost

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestMeterBasics(t *testing.T) {
	var m Meter
	m.AddBytes(UserToLSP, 100)
	m.AddBytes(UserToLSP, 50)
	m.AddBytes(LSPToUser, 10)
	m.AddBytes(IntraGroup, 5)
	m.AddTime(Users, 2*time.Millisecond)
	m.AddTime(LSP, 3*time.Millisecond)
	m.CountOp("enc1", 7)
	m.CountOp("enc1", 3)

	s := m.Snapshot()
	if s.UserToLSPBytes != 150 || s.LSPToUserBytes != 10 || s.IntraGroupBytes != 5 {
		t.Fatalf("bytes wrong: %+v", s)
	}
	if s.TotalBytes() != 165 {
		t.Fatalf("TotalBytes = %d", s.TotalBytes())
	}
	if s.UserTime != 2*time.Millisecond || s.LSPTime != 3*time.Millisecond {
		t.Fatalf("times wrong: %+v", s)
	}
	if s.Ops["enc1"] != 10 {
		t.Fatalf("ops wrong: %v", s.Ops)
	}
}

func TestNilMeterIsNoop(t *testing.T) {
	var m *Meter
	m.AddBytes(UserToLSP, 1)
	m.AddTime(LSP, time.Second)
	m.CountOp("x", 1)
	m.Reset()
	if s := m.Snapshot(); s.TotalBytes() != 0 {
		t.Fatal("nil meter recorded data")
	}
	// Time on a nil meter still runs the function.
	ran := false
	m.Time(Users, func() { ran = true })
	if !ran {
		t.Fatal("Time did not run fn on nil meter")
	}
}

func TestTimeAttributes(t *testing.T) {
	var m Meter
	m.Time(LSP, func() { time.Sleep(5 * time.Millisecond) })
	if s := m.Snapshot(); s.LSPTime < 4*time.Millisecond {
		t.Fatalf("LSP time %v too small", s.LSPTime)
	}
}

func TestReset(t *testing.T) {
	var m Meter
	m.AddBytes(UserToLSP, 9)
	m.CountOp("a", 1)
	m.Reset()
	s := m.Snapshot()
	if s.TotalBytes() != 0 || len(s.Ops) != 0 {
		t.Fatalf("reset did not clear: %+v", s)
	}
}

func TestSnapshotAddScale(t *testing.T) {
	a := Snapshot{UserToLSPBytes: 10, LSPToUserBytes: 4, UserTime: 10 * time.Millisecond,
		Ops: map[string]int64{"x": 4}}
	b := Snapshot{UserToLSPBytes: 30, IntraGroupBytes: 6, LSPTime: 20 * time.Millisecond,
		Ops: map[string]int64{"x": 2, "y": 2}}
	sum := a.Add(b)
	if sum.UserToLSPBytes != 40 || sum.LSPToUserBytes != 4 || sum.IntraGroupBytes != 6 {
		t.Fatalf("Add bytes wrong: %+v", sum)
	}
	if sum.Ops["x"] != 6 || sum.Ops["y"] != 2 {
		t.Fatalf("Add ops wrong: %v", sum.Ops)
	}
	avg := sum.Scale(2)
	if avg.UserToLSPBytes != 20 || avg.UserTime != 5*time.Millisecond || avg.Ops["x"] != 3 {
		t.Fatalf("Scale wrong: %+v", avg)
	}
}

func TestScalePanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Scale(0) did not panic")
		}
	}()
	Snapshot{}.Scale(0)
}

func TestConcurrentMeter(t *testing.T) {
	var m Meter
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.AddBytes(UserToLSP, 1)
				m.CountOp("op", 1)
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot()
	if s.UserToLSPBytes != 16000 || s.Ops["op"] != 16000 {
		t.Fatalf("concurrent totals wrong: %+v", s)
	}
}

func TestStringOutput(t *testing.T) {
	s := Snapshot{UserToLSPBytes: 2048, Ops: map[string]int64{"enc": 5}}
	str := s.String()
	for _, want := range []string{"2.00KiB", "enc:5", "user=", "lsp="} {
		if !strings.Contains(str, want) {
			t.Fatalf("String() = %q missing %q", str, want)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		n    int64
		want string
	}{
		{512, "512B"},
		{2048, "2.00KiB"},
		{3 << 20, "3.00MiB"},
	}
	for _, c := range cases {
		if got := FormatBytes(c.n); got != c.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestChannelPartyStrings(t *testing.T) {
	if UserToLSP.String() == "" || LSP.String() == "" || Users.String() == "" {
		t.Fatal("empty Stringer output")
	}
	if Channel(99).String() == "" || Party(99).String() == "" {
		t.Fatal("unknown values should still render")
	}
}
