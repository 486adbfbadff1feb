package main

import (
	"testing"

	"ppgnn/internal/core"
	"ppgnn/internal/encode"
	"ppgnn/internal/geo"
	"ppgnn/internal/gnn"
	"ppgnn/internal/rtree"
)

// testEnv sets up a smoke-sized copy of a workload in this process.
func testEnv(t *testing.T, name string) *env {
	t.Helper()
	if err := pinProcs(); err != nil {
		t.Skip(err)
	}
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	e, err := setup(w.smoke(), 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.close)
	e.prepareOracles()
	return e
}

// oneQuery runs a real query in process and returns everything the oracle
// is given.
func oneQuery(t *testing.T, e *env, g *group) (plain []gnn.Result, q *core.QueryMsg, locs []*core.LocationMsg, recs []encode.Record) {
	t.Helper()
	plain = e.plainAnswer(g)
	q, locs, err := g.g.BuildQuery(nil)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := e.lsps[g.tenant].Process(q, locs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if recs, err = g.g.DecryptAnswer(ans, nil); err != nil {
		t.Fatal(err)
	}
	return plain, q, locs, recs
}

// corruptions returns wrong versions of an answer: a moved point, a
// swapped pair, a dropped POI, an extra POI.
func corruptions(recs []encode.Record) map[string][]encode.Record {
	clone := func() []encode.Record { return append([]encode.Record(nil), recs...) }
	out := map[string][]encode.Record{}
	moved := clone()
	moved[0].X ^= 1 << 20
	out["first point moved"] = moved
	out["last POI dropped"] = clone()[:len(recs)-1]
	out["extra POI"] = append(clone(), recs[0])
	if len(recs) > 1 {
		swapped := clone()
		swapped[0], swapped[1] = swapped[1], swapped[0]
		out["first two swapped"] = swapped
	}
	return out
}

// answered is one real query and everything the oracle was given for it.
type answered struct {
	g     *group
	plain []gnn.Result
	q     *core.QueryMsg
	locs  []*core.LocationMsg
	recs  []encode.Record
}

// checkOracle runs `rounds` real queries (calling before, if set, ahead of
// each) and requires the oracle to accept every real answer and reject
// every corruption of it. It returns what it ran for further checks.
func checkOracle(t *testing.T, e *env, rounds int, before func()) []answered {
	t.Helper()
	var all []answered
	for i := 0; i < rounds; i++ {
		c := e.clients[i%len(e.clients)]
		g := c.nextGroup()
		if before != nil {
			before()
		}
		plain, q, locs, recs := oneQuery(t, e, g)
		all = append(all, answered{g, plain, q, locs, recs})
		want, err := e.expected(g, plain, q, locs)
		if err != nil {
			t.Fatal(err)
		}
		if err := samePoints(recs, want, geo.UnitRect); err != nil {
			t.Fatalf("round %d: real answer rejected: %v", i, err)
		}
		for name, bad := range corruptions(recs) {
			if samePoints(bad, want, geo.UnitRect) == nil {
				t.Errorf("round %d: corrupted answer (%s) accepted", i, name)
			}
		}
	}
	return all
}

func TestPlainOracle(t *testing.T) {
	checkOracle(t, testEnv(t, "opt_2048_nas"), 20, nil)
}

func TestSingleUserOracle(t *testing.T) {
	checkOracle(t, testEnv(t, "svc_small_sessions"), 20, nil)
}

func TestSanitisedOracle(t *testing.T) {
	e := testEnv(t, "paper_default")
	// The replay must be of the right candidate with the right seed: the
	// plain answer, or the prefix another candidate's stream keeps, is not
	// what the LSP returned whenever sanitation cut the answer.
	cut, otherStream := 0, 0
	for _, a := range checkOracle(t, e, 20, nil) {
		if len(a.recs) == len(a.plain) {
			continue
		}
		cut++
		if samePoints(a.recs, a.plain, geo.UnitRect) == nil {
			t.Error("unsanitised answer accepted where sanitation cut it")
		}
		rt, err := realCandidate(a.g.part, a.locs, a.g.real)
		if err != nil {
			t.Fatal(err)
		}
		if len(sanitised(e.lsps[0], a.q, rt+1, a.plain, a.g.real)) != len(a.recs) {
			otherStream++
		}
	}
	if cut == 0 {
		t.Fatal("sanitation never cut an answer in 20 queries; the test exercises nothing")
	}
	t.Logf("sanitation cut %d of 20 answers; the neighbouring candidate's stream keeps a different prefix in %d", cut, otherStream)
}

func TestChurnOracle(t *testing.T) {
	e := testEnv(t, "big_db_churn")
	write := func() {
		if _, _, err := e.writeBatch(); err != nil {
			t.Fatal(err)
		}
	}
	// Reach the steady state in which batches delete as well as insert.
	for i := 0; i <= churnLiveBatches; i++ {
		write()
	}
	checkOracle(t, e, 20, write)
	if got, want := len(e.churn.live), churnLiveBatches*e.w.Churn; got != want {
		t.Errorf("%d churn POIs live, want a steady %d", got, want)
	}

	// The incremental oracle tracks the database: an answer from before a
	// write batch is rejected once the batch has changed the top k.
	stale := 0
	for i := 0; i < 20; i++ {
		g := e.clients[0].nextGroup()
		_, _, _, before := oneQuery(t, e, g)
		write()
		if samePoints(before, e.plainAnswer(g), geo.UnitRect) != nil {
			stale++
		}
		// The merged top-k equals a full scan of what is in the index now.
		var items []rtree.Item
		e.lsps[0].Tree().All(func(it rtree.Item) bool {
			items = append(items, it)
			return true
		})
		p := e.w.params()
		full := topK(items, g.real, p.K, p.Agg)
		merged := e.plainAnswer(g)
		for j := range full {
			if full[j].Item != merged[j].Item {
				t.Fatalf("write %d: incremental oracle rank %d is POI %d, a full scan of the index says %d", i, j, merged[j].Item.ID, full[j].Item.ID)
			}
		}
	}
	if stale == 0 {
		t.Error("no write batch ever changed an answer: the churn does not reach the queries")
	}
}

func TestTopKMatchesBruteForce(t *testing.T) {
	e := testEnv(t, "paper_default")
	g := e.clients[0].groups[0]
	want := (&gnn.BruteForce{Items: e.items[0], Agg: gnn.Sum}).Search(g.real, 8)
	got := topK(e.items[0], g.real, 8, gnn.Sum)
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("rank %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}
