package core

import (
	"bytes"
	"errors"
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"ppgnn/internal/cost"
	"ppgnn/internal/dataset"
	"ppgnn/internal/gnn"
	"ppgnn/internal/obs"
	"ppgnn/internal/rtree"
	"ppgnn/internal/sanitize"

	"ppgnn/internal/geo"
)

// testKeyBits keeps protocol tests fast; correctness is size-independent.
const testKeyBits = 256

func testItems(n int) []rtree.Item { return dataset.Synthetic(123, n) }

func testLSP(nPOIs int) *LSP {
	return NewLSP(testItems(nPOIs), geo.UnitRect)
}

func testParams(n int, variant Variant) Params {
	p := DefaultParams(n)
	p.KeyBits = testKeyBits
	p.D = 6
	p.Delta = 12
	if n == 1 {
		p.Delta = p.D
	}
	p.K = 6
	p.Variant = variant
	return p
}

func randomLocations(rng *rand.Rand, n int) []geo.Point {
	out := make([]geo.Point, n)
	for i := range out {
		out[i] = geo.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	return out
}

// plainAnswer computes the reference plaintext kGNN answer.
func plainAnswer(l *LSP, query []geo.Point, k int, agg gnn.Aggregate) []gnn.Result {
	return l.Search(query, k, agg)
}

func TestSingleUserQueryExact(t *testing.T) {
	lsp := testLSP(3000)
	rng := rand.New(rand.NewSource(1))
	p := testParams(1, VariantPPGNN)
	locs := randomLocations(rng, 1)
	g, err := NewGroup(p, locs, rng)
	if err != nil {
		t.Fatal(err)
	}
	var m cost.Meter
	res, err := g.Run(LocalService{LSP: lsp, Meter: &m}, &m)
	if err != nil {
		t.Fatal(err)
	}
	want := plainAnswer(lsp, locs, p.K, p.Agg)
	if len(res.Points) != len(want) {
		t.Fatalf("got %d POIs, want %d", len(res.Points), len(want))
	}
	for i := range want {
		if res.Points[i].Dist(want[i].Item.P) > 1e-6 {
			t.Fatalf("rank %d: got %v, want %v", i, res.Points[i], want[i].Item.P)
		}
	}
}

func TestGroupQueryExactNoSanitize(t *testing.T) {
	lsp := testLSP(3000)
	for _, variant := range []Variant{VariantPPGNN, VariantOPT, VariantNaive} {
		rng := rand.New(rand.NewSource(7))
		p := testParams(4, variant)
		p.NoSanitize = true
		locs := randomLocations(rng, 4)
		g, err := NewGroup(p, locs, rng)
		if err != nil {
			t.Fatalf("%v: %v", variant, err)
		}
		var m cost.Meter
		res, err := g.Run(LocalService{LSP: lsp, Meter: &m}, &m)
		if err != nil {
			t.Fatalf("%v: %v", variant, err)
		}
		want := plainAnswer(lsp, locs, p.K, p.Agg)
		if len(res.Points) != len(want) {
			t.Fatalf("%v: got %d POIs, want %d", variant, len(res.Points), len(want))
		}
		for i := range want {
			if res.Points[i].Dist(want[i].Item.P) > 1e-6 {
				t.Fatalf("%v rank %d: got %v, want %v", variant, i, res.Points[i], want[i].Item.P)
			}
		}
	}
}

func TestGroupQuerySanitizedIsPrefix(t *testing.T) {
	lsp := testLSP(3000)
	rng := rand.New(rand.NewSource(11))
	p := testParams(6, VariantPPGNN)
	locs := randomLocations(rng, 6)
	g, err := NewGroup(p, locs, rng)
	if err != nil {
		t.Fatal(err)
	}
	var m cost.Meter
	res, err := g.Run(LocalService{LSP: lsp, Meter: &m}, &m)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < 1 || len(res.Points) > p.K {
		t.Fatalf("sanitized answer length %d outside [1,%d]", len(res.Points), p.K)
	}
	full := plainAnswer(lsp, locs, p.K, p.Agg)
	for i := range res.Points {
		if res.Points[i].Dist(full[i].Item.P) > 1e-6 {
			t.Fatalf("rank %d: sanitized answer is not a prefix of the true answer", i)
		}
	}
}

func TestAllAggregates(t *testing.T) {
	lsp := testLSP(2000)
	for _, agg := range []gnn.Aggregate{gnn.Sum, gnn.Max, gnn.Min} {
		rng := rand.New(rand.NewSource(13))
		p := testParams(3, VariantPPGNN)
		p.Agg = agg
		p.NoSanitize = true
		locs := randomLocations(rng, 3)
		g, err := NewGroup(p, locs, rng)
		if err != nil {
			t.Fatalf("%v: %v", agg, err)
		}
		res, err := g.Run(LocalService{LSP: lsp}, nil)
		if err != nil {
			t.Fatalf("%v: %v", agg, err)
		}
		want := plainAnswer(lsp, locs, p.K, agg)
		for i := range want {
			if res.Points[i].Dist(want[i].Item.P) > 1e-6 {
				t.Fatalf("%v rank %d mismatch", agg, i)
			}
		}
	}
}

func TestIncludeIDs(t *testing.T) {
	lsp := testLSP(2000)
	rng := rand.New(rand.NewSource(17))
	p := testParams(2, VariantPPGNN)
	p.IncludeIDs = true
	p.NoSanitize = true
	locs := randomLocations(rng, 2)
	g, err := NewGroup(p, locs, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run(LocalService{LSP: lsp}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := plainAnswer(lsp, locs, p.K, p.Agg)
	for i := range want {
		if int64(res.Records[i].ID) != want[i].Item.ID {
			t.Fatalf("rank %d: ID %d, want %d", i, res.Records[i].ID, want[i].Item.ID)
		}
	}
}

// The OPT variant must return exactly the same answer as PPGNN.
func TestOPTMatchesPPGNN(t *testing.T) {
	lsp := testLSP(2000)
	for trial := 0; trial < 3; trial++ {
		locs := randomLocations(rand.New(rand.NewSource(int64(trial+100))), 5)
		var answers [][]geo.Point
		for _, variant := range []Variant{VariantPPGNN, VariantOPT} {
			p := testParams(5, variant)
			p.NoSanitize = true
			g, err := NewGroup(p, locs, rand.New(rand.NewSource(42)))
			if err != nil {
				t.Fatal(err)
			}
			res, err := g.Run(LocalService{LSP: lsp}, nil)
			if err != nil {
				t.Fatal(err)
			}
			answers = append(answers, res.Points)
		}
		if len(answers[0]) != len(answers[1]) {
			t.Fatalf("trial %d: lengths differ: %d vs %d", trial, len(answers[0]), len(answers[1]))
		}
		for i := range answers[0] {
			if answers[0][i] != answers[1][i] {
				t.Fatalf("trial %d rank %d: PPGNN %v, OPT %v", trial, i, answers[0][i], answers[1][i])
			}
		}
	}
}

// Communication shape (Table 2 / Section 6): for large δ', OPT moves fewer
// user→LSP ciphertext bytes than PPGNN; Naive moves the most location data.
func TestCommunicationShape(t *testing.T) {
	lsp := testLSP(1000)
	locs := randomLocations(rand.New(rand.NewSource(3)), 4)
	run := func(variant Variant, delta int) cost.Snapshot {
		p := testParams(4, variant)
		p.Delta = delta
		p.NoSanitize = true
		g, err := NewGroup(p, locs, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		var m cost.Meter
		if _, err := g.Run(LocalService{LSP: lsp, Meter: &m}, &m); err != nil {
			t.Fatal(err)
		}
		return m.Snapshot()
	}
	const delta = 64
	ppgnn := run(VariantPPGNN, delta)
	opt := run(VariantOPT, delta)
	naive := run(VariantNaive, delta)
	if opt.UserToLSPBytes >= ppgnn.UserToLSPBytes {
		t.Errorf("OPT user→LSP bytes %d not below PPGNN %d at δ'=%d",
			opt.UserToLSPBytes, ppgnn.UserToLSPBytes, delta)
	}
	if naive.UserToLSPBytes <= ppgnn.UserToLSPBytes {
		t.Errorf("Naive user→LSP bytes %d not above PPGNN %d",
			naive.UserToLSPBytes, ppgnn.UserToLSPBytes)
	}
	// The OPT answer is ε_2: about 1.5× the ε_1 answer size.
	if opt.LSPToUserBytes <= ppgnn.LSPToUserBytes {
		t.Errorf("OPT answer bytes %d not above PPGNN %d", opt.LSPToUserBytes, ppgnn.LSPToUserBytes)
	}
}

func TestDynamicDatabase(t *testing.T) {
	lsp := testLSP(500)
	rng := rand.New(rand.NewSource(21))
	p := testParams(1, VariantPPGNN)
	p.K = 1
	loc := []geo.Point{{X: 0.5, Y: 0.5}}
	g, err := NewGroup(p, loc, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Insert a POI exactly at the user's location: it must become the top-1.
	lsp.Insert(rtree.Item{ID: 999999, P: geo.Point{X: 0.5, Y: 0.5}})
	res, err := g.Run(LocalService{LSP: lsp}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Points[0].Dist(geo.Point{X: 0.5, Y: 0.5}) > 1e-6 {
		t.Fatalf("dynamic insert not reflected: top-1 at %v", res.Points[0])
	}
	// Delete it: the top-1 must change.
	if !lsp.Delete(rtree.Item{ID: 999999, P: geo.Point{X: 0.5, Y: 0.5}}) {
		t.Fatal("delete failed")
	}
	res2, err := g.Run(LocalService{LSP: lsp}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Points[0].Dist(geo.Point{X: 0.5, Y: 0.5}) < 1e-9 {
		t.Fatal("deleted POI still returned")
	}
}

// TestInsertBehindQueryLandsBeforeNextQuery checks the RWMutex writer
// preference DESIGN §2 "Live updates" claims: an Insert blocked behind a
// query's in-flight candidate phase takes the lock ahead of a query that
// arrived after it, so that query parks on the read lock instead of
// overtaking the write, and then reads the tree with the insert in it.
func TestInsertBehindQueryLandsBeforeNextQuery(t *testing.T) {
	lsp := testLSP(500)
	at := geo.Point{X: 0.5, Y: 0.5}
	p := testParams(1, VariantPPGNN)
	p.K = 1
	group := func(seed int64) *Group {
		g, err := NewGroup(p, []geo.Point{at}, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	first, second := group(22), group(23)

	// The first query's first kGNN call holds its candidate phase open
	// until release closes.
	tree := lsp.Tree()
	entered, release := make(chan struct{}), make(chan struct{})
	var hold sync.Once
	lsp.Search = func(query []geo.Point, k int, agg gnn.Aggregate) []gnn.Result {
		hold.Do(func() { close(entered); <-release })
		return (&gnn.MBM{Tree: tree, Agg: agg}).Search(query, k)
	}
	type outcome struct {
		res *Result
		err error
	}
	run := func(g *Group) chan outcome {
		done := make(chan outcome, 1)
		go func() {
			res, err := g.Run(LocalService{LSP: lsp}, nil)
			done <- outcome{res, err}
		}()
		return done
	}

	firstDone := run(first)
	<-entered
	inserted := make(chan struct{})
	go func() {
		lsp.Insert(rtree.Item{ID: 999999, P: at})
		close(inserted)
	}()
	for !parked("[sync.RWMutex.Lock", "(*LSP).Insert") {
		select {
		case <-inserted:
			t.Fatal("Insert did not wait for the in-flight candidate phase")
		default:
			runtime.Gosched()
		}
	}
	secondDone := run(second)
	for !parked("[sync.RWMutex.RLock", "(*LSP).answerCandidates") {
		select {
		case <-secondDone:
			t.Fatal("a query that arrived behind a waiting Insert overtook it")
		default:
			runtime.Gosched()
		}
	}
	close(release)

	if o := <-firstDone; o.err != nil {
		t.Fatal(o.err)
	}
	<-inserted
	o := <-secondDone
	if o.err != nil {
		t.Fatal(o.err)
	}
	if got := o.res.Points[0]; got.Dist(at) > 1e-6 {
		t.Fatalf("the later query's top-1 is %v: it did not read the insert at %v", got, at)
	}
}

// parked reports whether some goroutine is blocked in the state a stack
// dump names in its header (such as "[sync.RWMutex.RLock") with fn on its
// stack.
func parked(state, fn string) bool {
	buf := make([]byte, 1<<20)
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, state) && strings.Contains(g, fn) {
			return true
		}
	}
	return false
}

func TestQueryMsgRoundTrip(t *testing.T) {
	lsp := testLSP(200)
	_ = lsp
	rng := rand.New(rand.NewSource(31))
	for _, variant := range []Variant{VariantPPGNN, VariantOPT, VariantNaive} {
		p := testParams(3, variant)
		g, err := NewGroup(p, randomLocations(rng, 3), rng)
		if err != nil {
			t.Fatal(err)
		}
		var m cost.Meter
		q, locs, err := g.BuildQuery(&m)
		if err != nil {
			t.Fatal(err)
		}
		q2, err := UnmarshalQuery(q.Marshal())
		if err != nil {
			t.Fatalf("%v: %v", variant, err)
		}
		if q2.Variant != q.Variant || q2.K != q.K || q2.Delta != q.Delta ||
			q2.Theta0 != q.Theta0 || q2.PK.Cmp(q.PK) != 0 ||
			len(q2.V) != len(q.V) || len(q2.V1) != len(q.V1) || len(q2.V2) != len(q.V2) {
			t.Fatalf("%v: query roundtrip mismatch", variant)
		}
		for i := range q.V {
			if q2.V[i].Cmp(q.V[i]) != 0 {
				t.Fatalf("%v: V[%d] mismatch", variant, i)
			}
		}
		for _, lm := range locs {
			lm2, err := UnmarshalLocation(lm.Marshal())
			if err != nil {
				t.Fatal(err)
			}
			if lm2.UserID != lm.UserID || len(lm2.Set) != len(lm.Set) {
				t.Fatal("location roundtrip mismatch")
			}
			for i := range lm.Set {
				if lm2.Set[i] != lm.Set[i] {
					t.Fatal("location point mismatch")
				}
			}
		}
	}
}

func TestAnswerMsgRoundTrip(t *testing.T) {
	lsp := testLSP(500)
	rng := rand.New(rand.NewSource(37))
	p := testParams(2, VariantPPGNN)
	p.NoSanitize = true
	g, err := NewGroup(p, randomLocations(rng, 2), rng)
	if err != nil {
		t.Fatal(err)
	}
	q, locs, err := g.BuildQuery(nil)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := lsp.Process(q, locs, nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalAnswer(ans.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back.Degree != ans.Degree || len(back.Cts) != len(ans.Cts) {
		t.Fatal("answer roundtrip mismatch")
	}
	// The unmarshaled answer must still decrypt.
	records, err := g.DecryptAnswer(back, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 {
		t.Fatal("no records after roundtrip")
	}
}

// TestRoundTripNilMeter: RoundTrip marshals the query, the location
// sets and the answer only to count their bytes. A metered trip charges
// exactly the marshalled sizes; a nil-meter trip skips the marshalling
// and so allocates less.
func TestRoundTripNilMeter(t *testing.T) {
	lsp := testLSP(500)
	rng := rand.New(rand.NewSource(37))
	p := testParams(2, VariantPPGNN)
	p.NoSanitize = true
	g, err := NewGroup(p, randomLocations(rng, 2), rng)
	if err != nil {
		t.Fatal(err)
	}
	q, locs, err := g.BuildQuery(nil)
	if err != nil {
		t.Fatal(err)
	}
	svc := LocalService{LSP: lsp}
	var m cost.Meter
	ans, err := RoundTrip(svc, obs.TraceContext{}, q, locs, &m)
	if err != nil {
		t.Fatal(err)
	}
	up := len(q.Marshal())
	for _, lm := range locs {
		up += len(lm.Marshal())
	}
	snap := m.Snapshot()
	if snap.UserToLSPBytes != int64(up) || snap.LSPToUserBytes != int64(len(ans.Marshal())) {
		t.Fatalf("metered bytes up %d down %d, want %d and %d",
			snap.UserToLSPBytes, snap.LSPToUserBytes, up, len(ans.Marshal()))
	}

	trip := func(meter *cost.Meter) func() {
		return func() {
			if _, err := RoundTrip(svc, obs.TraceContext{}, q, locs, meter); err != nil {
				t.Fatal(err)
			}
		}
	}
	metered := testing.AllocsPerRun(5, trip(&m))
	bare := testing.AllocsPerRun(5, trip(nil))
	if bare >= metered {
		t.Fatalf("nil-meter round trip allocates %v times, metered %v: want fewer", bare, metered)
	}
}

func TestLSPValidation(t *testing.T) {
	lsp := testLSP(200)
	rng := rand.New(rand.NewSource(41))
	p := testParams(3, VariantPPGNN)
	p.NoSanitize = true
	g, err := NewGroup(p, randomLocations(rng, 3), rng)
	if err != nil {
		t.Fatal(err)
	}
	q, locs, err := g.BuildQuery(nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(q QueryMsg, locs []*LocationMsg) (*QueryMsg, []*LocationMsg)
	}{
		{"no locations", func(q QueryMsg, _ []*LocationMsg) (*QueryMsg, []*LocationMsg) {
			return &q, nil
		}},
		{"bad user id", func(q QueryMsg, locs []*LocationMsg) (*QueryMsg, []*LocationMsg) {
			bad := *locs[0]
			bad.UserID = 99
			return &q, []*LocationMsg{&bad, locs[1], locs[2]}
		}},
		{"duplicate user id", func(q QueryMsg, locs []*LocationMsg) (*QueryMsg, []*LocationMsg) {
			dup := *locs[1]
			dup.UserID = 0
			return &q, []*LocationMsg{locs[0], &dup, locs[2]}
		}},
		{"ragged sets", func(q QueryMsg, locs []*LocationMsg) (*QueryMsg, []*LocationMsg) {
			short := *locs[2]
			short.Set = short.Set[:len(short.Set)-1]
			return &q, []*LocationMsg{locs[0], locs[1], &short}
		}},
		{"out of space", func(q QueryMsg, locs []*LocationMsg) (*QueryMsg, []*LocationMsg) {
			bad := *locs[0]
			bad.Set = append([]geo.Point(nil), bad.Set...)
			bad.Set[0] = geo.Point{X: 5, Y: 5}
			return &q, []*LocationMsg{&bad, locs[1], locs[2]}
		}},
		{"short indicator", func(q QueryMsg, locs []*LocationMsg) (*QueryMsg, []*LocationMsg) {
			q.V = q.V[:len(q.V)-1]
			return &q, locs
		}},
		{"k=0", func(q QueryMsg, locs []*LocationMsg) (*QueryMsg, []*LocationMsg) {
			q.K = 0
			return &q, locs
		}},
		{"corrupt partition", func(q QueryMsg, locs []*LocationMsg) (*QueryMsg, []*LocationMsg) {
			q.DBar = append([]int{}, q.DBar...)
			q.DBar[0]++
			return &q, locs
		}},
	}
	for _, c := range cases {
		mq, mlocs := c.mutate(*q, locs)
		if _, err := lsp.Process(mq, mlocs, nil); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// The unmutated query still works.
	if _, err := lsp.Process(q, locs, nil); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
}

func TestNewGroupValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	good := testParams(2, VariantPPGNN)
	locs := randomLocations(rng, 2)
	cases := []struct {
		name string
		p    Params
		locs []geo.Point
	}{
		{"n=0", func() Params { p := good; p.N = 0; return p }(), locs},
		{"d=1", func() Params { p := good; p.D = 1; return p }(), locs},
		{"delta<d", func() Params { p := good; p.Delta = p.D - 1; return p }(), locs},
		{"k=0", func() Params { p := good; p.K = 0; return p }(), locs},
		{"theta0=0", func() Params { p := good; p.Theta0 = 0; return p }(), locs},
		{"theta0>1", func() Params { p := good; p.Theta0 = 1.5; return p }(), locs},
		{"tiny key", func() Params { p := good; p.KeyBits = 64; return p }(), locs},
		{"wrong locs", good, locs[:1]},
		{"loc outside", good, []geo.Point{{X: 2, Y: 2}, {X: 0.5, Y: 0.5}}},
	}
	for _, c := range cases {
		if _, err := NewGroup(c.p, c.locs, rng); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestSingleUserRequiresDeltaEqualsD(t *testing.T) {
	p := testParams(1, VariantPPGNN)
	p.Delta = p.D + 1
	if _, err := NewGroup(p, randomLocations(rand.New(rand.NewSource(1)), 1), nil); err == nil {
		t.Fatal("n=1 with δ≠d accepted")
	}
}

func TestOptimalOmega(t *testing.T) {
	cases := []struct{ dp, want int }{
		{8, 2},   // √(8/2)=2 — the Figure 4 example
		{100, 7}, // √50≈7.07
		{1, 1},
		{2, 1},
		{200, 10},
	}
	for _, c := range cases {
		if got := OptimalOmega(c.dp); got != c.want {
			t.Errorf("OptimalOmega(%d) = %d, want %d", c.dp, got, c.want)
		}
	}
}

// Black-box property (paper Section 1): swap the kGNN engine for an
// arbitrary group query and the protocol still works. Here: a "most
// central POI" query that ignores k ordering beyond centrality.
func TestBlackBoxSearcherSwap(t *testing.T) {
	items := testItems(500)
	lsp := NewLSP(items, geo.UnitRect)
	lsp.Search = func(query []geo.Point, k int, agg gnn.Aggregate) []gnn.Result {
		// A PPMLD-style engine: rank POIs by distance to the group centroid.
		c := geo.Centroid(query)
		return (&gnn.MBM{Tree: lsp.Tree(), Agg: gnn.Sum}).Search([]geo.Point{c}, k)
	}
	rng := rand.New(rand.NewSource(51))
	p := testParams(3, VariantPPGNN)
	p.NoSanitize = true
	locs := randomLocations(rng, 3)
	g, err := NewGroup(p, locs, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run(LocalService{LSP: lsp}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cen := geo.Centroid(locs)
	want := (&gnn.MBM{Tree: lsp.Tree(), Agg: gnn.Sum}).Search([]geo.Point{cen}, p.K)
	for i := range want {
		if res.Points[i].Dist(want[i].Item.P) > 1e-6 {
			t.Fatalf("black-box swap: rank %d mismatch", i)
		}
	}
}

func TestVariantString(t *testing.T) {
	if VariantPPGNN.String() != "PPGNN" || VariantOPT.String() != "PPGNN-OPT" || VariantNaive.String() != "Naive" {
		t.Fatal("Variant.String mismatch")
	}
}

func TestDeltaPrime(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	p := testParams(4, VariantPPGNN)
	g, err := NewGroup(p, randomLocations(rng, 4), rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.DeltaPrime() < p.Delta {
		t.Fatalf("δ' = %d < δ = %d", g.DeltaPrime(), p.Delta)
	}
	pn := testParams(4, VariantNaive)
	gn, err := NewGroup(pn, randomLocations(rng, 4), rng)
	if err != nil {
		t.Fatal(err)
	}
	if gn.DeltaPrime() != pn.Delta {
		t.Fatalf("naive δ' = %d, want δ = %d", gn.DeltaPrime(), pn.Delta)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalQuery([]byte{0xff, 0x01}); err == nil {
		t.Error("garbage query accepted")
	}
	if _, err := UnmarshalLocation([]byte{0x01}); err == nil {
		t.Error("garbage location accepted")
	}
	if _, err := UnmarshalAnswer([]byte{0x09}); err == nil {
		t.Error("garbage answer accepted")
	}
	// Degree 1, key width 0, count ≈10⁸: a zero width must not let the
	// count through to a 10⁸-slot allocation.
	if _, err := UnmarshalAnswer([]byte{0x01, 0x00, 0xe9, 0xe9, 0xe9, 0x30}); err == nil {
		t.Error("zero-width answer accepted")
	}
}

func TestWorkersParallelSanitation(t *testing.T) {
	lsp := testLSP(1000)
	lsp.Workers = 4
	rng := rand.New(rand.NewSource(71))
	p := testParams(4, VariantPPGNN)
	locs := randomLocations(rng, 4)
	g, err := NewGroup(p, locs, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run(LocalService{LSP: lsp}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic vs sequential: same SanitizeSeed → same answer.
	lsp2 := testLSP(1000)
	lsp2.Workers = 1
	g2, err := NewGroup(p, locs, rand.New(rand.NewSource(71)))
	if err != nil {
		t.Fatal(err)
	}
	// Use a fresh rng with the same seed so the protocol choices repeat.
	g2.Rng = rand.New(rand.NewSource(99))
	g.Rng = rand.New(rand.NewSource(99))
	res2, err := g2.Run(LocalService{LSP: lsp2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res1b, err := g.Run(LocalService{LSP: lsp}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	if len(res1b.Points) != len(res2.Points) {
		t.Fatalf("parallel vs sequential differ: %d vs %d POIs", len(res1b.Points), len(res2.Points))
	}
	for i := range res1b.Points {
		if res1b.Points[i] != res2.Points[i] {
			t.Fatalf("parallel vs sequential differ at rank %d", i)
		}
	}
}

// The sanitizer's working memory is reused from candidate to candidate
// within a query and dropped after it; none of that may reach the answer.
func TestSanitizedQueryRepeatsByteIdentical(t *testing.T) {
	lsp := testLSP(1000)
	rng := rand.New(rand.NewSource(72))
	g, err := NewGroup(testParams(4, VariantPPGNN), randomLocations(rng, 4), rng)
	if err != nil {
		t.Fatal(err)
	}
	q, locs, err := g.BuildQuery(nil)
	if err != nil {
		t.Fatal(err)
	}
	first, err := lsp.Process(q, locs, nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := lsp.Process(q, locs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Marshal(), second.Marshal()) {
		t.Fatal("the same sanitised query processed twice on one LSP gave different answer bytes")
	}
}

// The hypothesis-testing parameters are wire input and size the sanitizer's
// sample set (N_H ∝ 1/(θ0·φ²)): values outside Theorem 5.1's ranges, or
// implying more samples than sanitize.MaxSampleSize, are refused from the
// message alone, typed, before anything is allocated for them.
func TestHostileSanitationParams(t *testing.T) {
	lsp := testLSP(500)
	rng := rand.New(rand.NewSource(73))
	g, err := NewGroup(testParams(3, VariantPPGNN), randomLocations(rng, 3), rng)
	if err != nil {
		t.Fatal(err)
	}
	q, locs, err := g.BuildQuery(nil)
	if err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	for _, tc := range []struct {
		name                    string
		theta0, gamma, eta, phi float64
	}{
		{"θ0 tiny: N_H ≈ 6e8", 1e-6, 0.05, 0.2, 0.1},
		{"θ0 = 0", 0, 0.05, 0.2, 0.1},
		{"θ0 < 0", -0.5, 0.05, 0.2, 0.1},
		{"θ0 = 1", 1, 0.05, 0.2, 0.1},
		{"θ0 > 1", 1.5, 0.05, 0.2, 0.1},
		{"θ0 NaN", nan, 0.05, 0.2, 0.1},
		{"θ0(1+φ) ≥ 1", 0.95, 0.05, 0.2, 0.1},
		{"φ < 0", 0.05, 0.05, 0.2, -0.1},
		{"φ NaN", 0.05, 0.05, 0.2, nan},
		{"φ tiny: N_H ≈ 1e12", 0.05, 0.05, 0.2, 1e-6},
		{"φ below float resolution", 0.05, 0.05, 0.2, 1e-300},
		{"γ = 1", 0.05, 1, 0.2, 0.1},
		{"γ < 0", 0.05, -1, 0.2, 0.1},
		{"γ NaN", 0.05, nan, 0.2, 0.1},
		{"η > 1", 0.05, 0.05, 1.5, 0.1},
		{"η NaN", 0.05, 0.05, nan, 0.1},
	} {
		bad := *q
		bad.Theta0, bad.Gamma, bad.Eta, bad.Phi = tc.theta0, tc.gamma, tc.eta, tc.phi
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := lsp.Process(&bad, locs, nil)
		runtime.ReadMemStats(&after)
		var pe *sanitize.ParamError
		if !errors.As(err, &pe) {
			t.Errorf("%s: error %v, want a *sanitize.ParamError", tc.name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s: refusing the query allocated %d bytes", tc.name, alloc)
		}
	}
	// The paper's whole range (Table 3) is served, defaults spelled as zeros.
	for _, theta0 := range []float64{0.01, 0.05, 0.1} {
		ok := *q
		ok.Theta0, ok.Gamma, ok.Eta, ok.Phi = theta0, 0, 0, 0
		if _, err := lsp.Process(&ok, locs, nil); err != nil {
			t.Errorf("θ0=%v refused: %v", theta0, err)
		}
	}
}

func TestMaxCandidatesCap(t *testing.T) {
	lsp := testLSP(200)
	lsp.MaxCandidates = 8
	rng := rand.New(rand.NewSource(91))
	p := testParams(3, VariantPPGNN) // δ=12 > cap 8
	p.NoSanitize = true
	g, err := NewGroup(p, randomLocations(rng, 3), rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(LocalService{LSP: lsp}, nil); err == nil {
		t.Fatal("LSP accepted a query above its candidate cap")
	}
	lsp.MaxCandidates = 0 // default cap is permissive

	// A hostile shape is refused from the message alone, before its
	// candidate list or partition layout exists: n=4 users in singleton
	// subgroups over one 25-wide segment imply δ' = 25⁴ = 390,625 from a
	// 240 KB OPT query (59 MB allocated, and a layout pinned in the
	// process-wide cache, when the cap was checked after materializing).
	one := new(big.Int).Lsh(big.NewInt(1), 200)
	hostile := &QueryMsg{
		Variant: VariantOPT, K: 1, PK: one, Delta: 100,
		NBar: []int{1, 1, 1, 1}, DBar: []int{25},
		V1: make([]*big.Int, 625), V2: make([]*big.Int, 625),
	}
	for i := range hostile.V1 {
		hostile.V1[i], hostile.V2[i] = one, one
	}
	sets := make([]*LocationMsg, 4)
	for u := range sets {
		sets[u] = &LocationMsg{UserID: u, Set: randomLocations(rng, 25)}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = lsp.Process(hostile, sets, nil)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("LSP accepted a query implying 390,625 candidates")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Fatalf("rejecting the over-cap query allocated %d bytes", grew)
	}

	if _, err := g.Run(LocalService{LSP: lsp}, nil); err != nil {
		t.Fatalf("default cap rejected a normal query: %v", err)
	}
}

func TestProtocolVersionRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	p := testParams(2, VariantPPGNN)
	g, err := NewGroup(p, randomLocations(rng, 2), rng)
	if err != nil {
		t.Fatal(err)
	}
	q, _, err := g.BuildQuery(nil)
	if err != nil {
		t.Fatal(err)
	}
	raw := q.Marshal()
	if _, err := UnmarshalQuery(raw); err != nil {
		t.Fatalf("own version rejected: %v", err)
	}
	raw[0] = 99 // future version
	if _, err := UnmarshalQuery(raw); err == nil {
		t.Fatal("foreign protocol version accepted")
	}
}
