package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"ppgnn/internal/core"
	"ppgnn/internal/geo"
	"ppgnn/internal/gnn"
	"ppgnn/internal/rtree"
)

// TestLiveUpdatesBesideQueries runs group queries through a real server
// while a writer inserts and deletes POIs in a corner far from every
// group's real locations. The LSP's database lock keeps each query on one
// database version, so no candidate query panics on a half-updated node
// (Process would recover it into an error) and every answer matches the
// plaintext oracle. Under -race it also checks that the lock covers every
// read the candidate phase makes of the tree.
func TestLiveUpdatesBesideQueries(t *testing.T) {
	const (
		readers = 3
		queries = 3
	)
	srv, addr := startServer(t, 1500)
	pool := fastPool(addr)
	defer pool.Close()

	// Groups and their oracle answers are fixed before the writer starts:
	// the churned corner is too far to enter any real answer.
	oracle := &gnn.MBM{Tree: srv.LSP.Tree(), Agg: gnn.Sum}
	groups := make([]*core.Group, readers)
	wants := make([][]gnn.Result, readers)
	p := testParams(2, core.VariantPPGNN)
	for i := range groups {
		rng := rand.New(rand.NewSource(int64(200 + i)))
		locs := []geo.Point{
			{X: 0.1 + 0.4*rng.Float64(), Y: 0.1 + 0.4*rng.Float64()},
			{X: 0.1 + 0.4*rng.Float64(), Y: 0.1 + 0.4*rng.Float64()},
		}
		g, err := core.NewGroup(p, locs, rng)
		if err != nil {
			t.Fatal(err)
		}
		groups[i], wants[i] = g, oracle.Search(locs, p.K)
	}

	stop := make(chan struct{})
	writer := make(chan error, 1)
	writes := 0
	go func() {
		rng := rand.New(rand.NewSource(9))
		nextID := int64(1) << 40
		var live []rtree.Item
		for {
			select {
			case <-stop:
				writer <- nil
				return
			default:
			}
			if len(live) < 32 || rng.Intn(2) == 0 {
				it := rtree.Item{ID: nextID, P: geo.Point{X: 0.9 + 0.1*rng.Float64(), Y: 0.9 + 0.1*rng.Float64()}}
				nextID++
				srv.LSP.Insert(it)
				live = append(live, it)
			} else {
				i := rng.Intn(len(live))
				if !srv.LSP.Delete(live[i]) {
					writer <- fmt.Errorf("delete of live POI %d failed", live[i].ID)
					return
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			writes++
			// Pace the writer so it leaves the readers a CPU.
			time.Sleep(50 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for i := range groups {
		wg.Add(1)
		go func(g *core.Group, want []gnn.Result) {
			defer wg.Done()
			for j := 0; j < queries; j++ {
				res, err := g.Run(pool, nil)
				if err != nil {
					errs <- err
					return
				}
				if len(res.Points) != len(want) {
					errs <- fmt.Errorf("answer has %d points, oracle %d", len(res.Points), len(want))
					return
				}
				for r := range want {
					if res.Points[r].Dist(want[r].Item.P) > 1e-6 {
						errs <- fmt.Errorf("rank %d: answer %v, oracle %v", r, res.Points[r], want[r].Item.P)
						return
					}
				}
			}
		}(groups[i], wants[i])
	}
	wg.Wait()
	close(stop)
	if err := <-writer; err != nil {
		t.Fatal(err)
	}
	if writes == 0 {
		t.Fatal("the writer landed no update beside the queries")
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
