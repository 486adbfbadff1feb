package ppgnn_test

import (
	"fmt"
	"math/rand"
	"sort"

	"ppgnn"
	"ppgnn/internal/geo"
	"ppgnn/internal/gnn"
	"ppgnn/internal/rtree"
)

// exampleParams keeps the documentation examples fast; production callers
// use DefaultParams unchanged (1024-bit keys, d=25, δ=100).
func exampleParams(n int) ppgnn.Params {
	p := ppgnn.DefaultParams(n)
	p.KeyBits = 256
	p.D = 5
	p.Delta = 10
	if n == 1 {
		p.Delta = p.D
	}
	p.K = 3
	p.NoSanitize = true // deterministic output for the doc examples
	return p
}

// The basic flow: an LSP over a POI database, a group of users, one
// privacy-preserving query.
func Example() {
	server := ppgnn.NewServer(ppgnn.SyntheticDataset(1, 5000), ppgnn.UnitSpace)
	group, err := ppgnn.NewGroup(exampleParams(2), []ppgnn.Point{
		{X: 0.30, Y: 0.30},
		{X: 0.34, Y: 0.28},
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	res, err := group.Run(ppgnn.Local(server), nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("%d meeting places returned\n", len(res.Points))
	// Output: 3 meeting places returned
}

// Cost accounting: a Meter captures the paper's three metrics for a run.
func ExampleMeter() {
	server := ppgnn.NewServer(ppgnn.SyntheticDataset(2, 2000), ppgnn.UnitSpace)
	group, err := ppgnn.NewGroup(exampleParams(2), []ppgnn.Point{
		{X: 0.5, Y: 0.5}, {X: 0.52, Y: 0.48},
	}, rand.New(rand.NewSource(2)))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	var meter ppgnn.Meter
	if _, err := group.Run(ppgnn.LocalMetered(server, &meter), &meter); err != nil {
		fmt.Println("error:", err)
		return
	}
	s := meter.Snapshot()
	fmt.Println("communication recorded:", s.TotalBytes() > 0)
	fmt.Println("LSP time recorded:", s.LSPTime > 0)
	// Output:
	// communication recorded: true
	// LSP time recorded: true
}

// The black box: any group-query engine can replace kGNN. Here the LSP
// ranks POIs by weighted travel cost (one user drives, one walks).
func ExampleServer_blackBox() {
	pois := ppgnn.SyntheticDataset(3, 2000)
	server := ppgnn.NewServer(pois, ppgnn.UnitSpace)
	weights := []float64{1, 3} // walker counts 3×
	server.Search = func(query []geo.Point, k int, _ gnn.Aggregate) []gnn.Result {
		var all []gnn.Result
		server.Tree().All(func(it rtree.Item) bool {
			c := 0.0
			for i, l := range query {
				c += weights[i] * it.P.Dist(l)
			}
			all = append(all, gnn.Result{Item: it, Cost: c})
			return true
		})
		sort.Slice(all, func(i, j int) bool { return all[i].Cost < all[j].Cost })
		return all[:min(k, len(all))]
	}
	group, err := ppgnn.NewGroup(exampleParams(2), []ppgnn.Point{
		{X: 0.2, Y: 0.2}, // driver
		{X: 0.8, Y: 0.8}, // walker
	}, rand.New(rand.NewSource(3)))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	res, err := group.Run(ppgnn.Local(server), nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	// The top POI sits much nearer the higher-weighted walker.
	top := res.Points[0]
	fmt.Println("closer to the walker:", top.Dist(ppgnn.Point{X: 0.8, Y: 0.8}) < top.Dist(ppgnn.Point{X: 0.2, Y: 0.2}))
	// Output: closer to the walker: true
}

// Threshold decryption: t of n users must cooperate to decrypt.
func ExampleNewThresholdGroup() {
	server := ppgnn.NewServer(ppgnn.SyntheticDataset(4, 2000), ppgnn.UnitSpace)
	p := exampleParams(3)
	p.KeyBits = 192 // safe primes; demo-sized
	tg, err := ppgnn.NewThresholdGroup(p, []ppgnn.Point{
		{X: 0.4, Y: 0.4}, {X: 0.45, Y: 0.42}, {X: 0.41, Y: 0.38},
	}, rand.New(rand.NewSource(4)), 2)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	res, err := tg.Run(ppgnn.Local(server), nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("jointly decrypted %d POIs\n", len(res.Points))
	// Output: jointly decrypted 3 POIs
}
