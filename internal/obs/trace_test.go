package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceTreeSnapshot(t *testing.T) {
	r := NewRegistry()
	rec := r.Recorder()

	tr := rec.Start("session")
	if tr == nil || tr.ID() == 0 {
		t.Fatal("a recorder must trace every query")
	}
	collect := tr.Child("collect")
	collect.Child("partition").End("ok")
	collect.End("ok")
	q := tr.Child("query")
	q.SetAttr("workers", CountBucketLabel(4))
	q.SetAttr("candidates", CountBucketLabel(101))
	q.AddRetry()
	q.End("ok")
	tr.Child("decrypt").End("ok")
	tr.End("ok")

	snaps := rec.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("recorder retained %d traces, want 1", len(snaps))
	}
	s := snaps[0]
	if s.TraceID != tr.ID().String() {
		t.Fatalf("trace id %q, want %q", s.TraceID, tr.ID())
	}
	if s.Remote {
		t.Fatal("locally originated trace marked remote")
	}
	root := s.Root
	if root.Phase != "session" || root.Outcome != "ok" {
		t.Fatalf("root = %s/%s", root.Phase, root.Outcome)
	}
	var phases []string
	for _, c := range root.Children {
		phases = append(phases, c.Phase)
	}
	if got := strings.Join(phases, ","); got != "collect,query,decrypt" {
		t.Fatalf("children = %s", got)
	}
	if root.Children[0].Children[0].Phase != "partition" {
		t.Fatalf("collect child = %+v", root.Children[0].Children)
	}
	qs := root.Children[1]
	if qs.Retries != 1 {
		t.Fatalf("query retries = %d", qs.Retries)
	}
	if qs.Attrs["workers"] != "le_4" || qs.Attrs["candidates"] != "le_128" {
		t.Fatalf("query attrs = %v", qs.Attrs)
	}
	if got := r.Snapshot().Counter(traceCompletedName); got != 1 {
		t.Fatalf("completed counter = %d", got)
	}
}

func TestTraceRingEviction(t *testing.T) {
	r := NewRegistry()
	rec := r.Recorder()
	var ids []string
	for i := 0; i < DefaultTraceRing+5; i++ {
		tr := rec.Start("session")
		ids = append(ids, tr.ID().String())
		tr.End("ok")
	}
	snaps := rec.Snapshot()
	if len(snaps) != DefaultTraceRing {
		t.Fatalf("ring holds %d, want %d", len(snaps), DefaultTraceRing)
	}
	// Newest first: the most recent id leads, the oldest five are gone.
	if snaps[0].TraceID != ids[len(ids)-1] {
		t.Fatalf("head = %s, want newest %s", snaps[0].TraceID, ids[len(ids)-1])
	}
	retained := make(map[string]bool, len(snaps))
	for _, s := range snaps {
		retained[s.TraceID] = true
	}
	for _, old := range ids[:5] {
		if retained[old] {
			t.Fatalf("evicted trace %s still in ring", old)
		}
	}
}

func TestSlowReservoirRetainsFailedAndSlow(t *testing.T) {
	r := NewRegistry()
	rec := r.Recorder()
	setSlowThreshold(t, time.Hour) // nothing is slow by duration

	fail := rec.Start("session")
	fail.End("quorum_lost")
	ok := rec.Start("session")
	ok.End("ok")

	slow := rec.SlowSnapshot()
	if len(slow) != 1 || slow[0].Root.Outcome != "quorum_lost" {
		t.Fatalf("slow reservoir = %+v, want just the failed trace", slow)
	}

	// Any positive duration crosses a zero-ish threshold: now an ok
	// trace is retained for being slow.
	setSlowThreshold(t, time.Nanosecond)
	slowOK := rec.Start("session")
	time.Sleep(time.Millisecond)
	slowOK.End("ok")
	if got := len(rec.SlowSnapshot()); got != 2 {
		t.Fatalf("slow reservoir holds %d, want 2 after a slow ok trace", got)
	}
	if got := r.Snapshot().Counter(traceSlowName); got != 2 {
		t.Fatalf("slow counter = %d", got)
	}

	// A burst of healthy traffic may flush the ring but not the reservoir.
	setSlowThreshold(t, time.Hour)
	for i := 0; i < DefaultTraceRing+1; i++ {
		tr := rec.Start("session")
		tr.End("ok")
	}
	if got := len(rec.SlowSnapshot()); got != 2 {
		t.Fatalf("healthy burst flushed the slow reservoir to %d", got)
	}
}

// setSlowThreshold moves the slow-trace threshold for one test.
func setSlowThreshold(t *testing.T, d time.Duration) {
	old := slowThreshold
	slowThreshold = d
	t.Cleanup(func() { slowThreshold = old })
}

func TestUntracedAndRemoteSpans(t *testing.T) {
	// An untraced configuration is a nil recorder: it starts nothing.
	var nilRec *Recorder
	for i := 0; i < 50; i++ {
		if tr := nilRec.Start("session"); tr != nil {
			t.Fatal("a nil recorder must trace nothing")
		}
	}
	// A nil trace is a functional no-op end to end.
	var tr *Span
	tr.Child("query").SetAttr("workers", "le_4")
	tr.End("ok")
	if tr.ID() != 0 {
		t.Fatal("nil trace must read as untraced")
	}

	// Remote ids are adopted as they come: the origin already decided.
	r := NewRegistry()
	rec := r.Recorder()
	remote := rec.StartRemote(TraceID(42), "session")
	if remote == nil || remote.ID() != 42 {
		t.Fatalf("StartRemote = %v", remote)
	}
	remote.End("ok")
	snaps := rec.Snapshot()
	if len(snaps) != 1 || !snaps[0].Remote {
		t.Fatalf("remote trace not retained: %+v", snaps)
	}
	if rec.StartRemote(0, "session") != nil {
		t.Fatal("a zero wire id must stay untraced")
	}

	if rec.Start("session") == nil {
		t.Fatal("a recorder must trace every query")
	}
}

func TestSpanMisuseSemantics(t *testing.T) {
	r := NewRegistry()
	rec := r.Recorder()
	tr := rec.Start("session")
	sp := tr.Child("query")
	sp.End("ok")

	// Frozen after End: mutators are no-ops, Child returns a safe nil.
	sp.AddRetry()
	sp.SetAttr("workers", "le_4")
	if c := sp.Child("lsp"); c != nil {
		t.Fatal("Child after End must return nil")
	}
	sp.End("error") // first End wins
	tr.End("ok")

	s := rec.Snapshot()[0].Root.Children[0]
	if s.Outcome != "ok" || s.Retries != 0 || len(s.Attrs) != 0 || len(s.Children) != 0 {
		t.Fatalf("post-End mutation leaked: %+v", s)
	}
}

func TestSpanConcurrentDoubleEnd(t *testing.T) {
	r := NewRegistry()
	rec := r.Recorder()
	for i := 0; i < 20; i++ {
		tr := rec.Start("session")
		sp := r.StartSpan("collect", tr)
		// Fan-out workers add retries to the phase span at once...
		var wg sync.WaitGroup
		for j := 0; j < 4; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sp.AddRetry()
			}()
		}
		wg.Wait()
		// ...then racing Ends of the phase and of the trace.
		for j := 0; j < 4; j++ {
			wg.Add(1)
			outcome := "ok"
			if j%2 == 1 {
				outcome = "error"
			}
			go func() {
				defer wg.Done()
				sp.End(outcome)
				tr.End(outcome)
			}()
		}
		wg.Wait()
	}
	// Exactly one completion per trace and one phase row per span,
	// concurrent Ends notwithstanding, with every retry counted.
	s := r.Snapshot()
	if got := s.Counter(traceCompletedName); got != 20 {
		t.Fatalf("completed = %d, want 20", got)
	}
	rows := s.Counter(phaseTotalName, L("phase", "collect"), L("outcome", "ok")) +
		s.Counter(phaseTotalName, L("phase", "collect"), L("outcome", "error"))
	if rows != 20 {
		t.Fatalf("collect phase rows = %d, want 20", rows)
	}
	if got := s.Counter(phaseRetriesName, L("phase", "collect")); got != 80 {
		t.Fatalf("collect retries = %d, want 80", got)
	}
}

func TestTraceDump(t *testing.T) {
	r := NewRegistry()
	rec := r.Recorder()
	tr := rec.Start("session")
	tr.End("ok")

	d := rec.Dump("watchdog")
	if d.Reason != "watchdog" || len(d.Recent) != 1 {
		t.Fatalf("dump = %+v", d)
	}
	// Dynamic reasons clamp: the reason is part of the JSON surface.
	if d := rec.Dump("tenant=acme corp"); d.Reason != OtherValue {
		t.Fatalf("hostile reason survived as %q", d.Reason)
	}
	if !strings.Contains(string(d.JSON()), `"reason"`) {
		t.Fatalf("dump JSON malformed: %s", d.JSON())
	}
	if got := r.Snapshot().Counter(traceDumpsName); got != 2 {
		t.Fatalf("dump counter = %d", got)
	}

	var nilRec *Recorder
	if nilRec.Dump("watchdog") != nil {
		t.Fatal("nil recorder must dump nil")
	}
}

func TestBucketLabels(t *testing.T) {
	cases := []struct {
		n    int
		want string
	}{{0, "le_1"}, {1, "le_1"}, {2, "le_2"}, {3, "le_4"}, {101, "le_128"}, {16384, "le_16384"}, {20000, "gt_16384"}}
	for _, c := range cases {
		if got := CountBucketLabel(c.n); got != c.want {
			t.Errorf("CountBucketLabel(%d) = %q, want %q", c.n, got, c.want)
		}
	}
	durations := []struct {
		d    time.Duration
		want string
	}{{5 * time.Millisecond, "le_10ms"}, {100 * time.Millisecond, "le_100ms"}, {3 * time.Second, "gt_2s"}}
	for _, c := range durations {
		if got := DurationBucketLabel(c.d); got != c.want {
			t.Errorf("DurationBucketLabel(%v) = %q, want %q", c.d, got, c.want)
		}
	}
	// Every producible bucket label is inside the closed catalog.
	for n := 0; n < 40000; n += 7 {
		if !AllowedTraceAttr("workers", CountBucketLabel(n)) {
			t.Fatalf("CountBucketLabel(%d) = %q escapes the catalog", n, CountBucketLabel(n))
		}
	}
	for d := time.Duration(0); d < 5*time.Second; d += 13 * time.Millisecond {
		if !AllowedTraceAttr("retry_after", DurationBucketLabel(d)) {
			t.Fatalf("DurationBucketLabel(%v) escapes the catalog", d)
		}
	}
}

func TestRecorderStartIncrementsCounters(t *testing.T) {
	r := NewRegistry()
	rec := r.Recorder()
	rec.Start("session").End("ok")
	rec.StartRemote(7, "session").End("ok")
	s := r.Snapshot()
	for name, want := range map[string]int64{
		traceStartedName:   1,
		traceRemoteName:    1,
		traceCompletedName: 2,
	} {
		if got := s.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

func TestTraceIDStringFormat(t *testing.T) {
	if got := TraceID(0xab).String(); got != fmt.Sprintf("%016x", 0xab) {
		t.Fatalf("TraceID string = %q", got)
	}
}
