// Network deployment: an LSP served over TCP (the base-station channel of
// the system model) and a group querying it remotely through the
// fault-tolerant connection pool, with the paper's per-query byte
// accounting.
//
//	go run ./examples/network
package main

import (
	"fmt"
	"log"
	"math/rand"

	"ppgnn"
)

func main() {
	// Start the LSP daemon on an ephemeral port (in production this is
	// cmd/ppgnn-lsp on its own host).
	server := ppgnn.NewServer(ppgnn.SequoiaDataset(), ppgnn.UnitSpace)
	srv, err := ppgnn.ListenAndServe(server, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	addr, err := srv.Addr()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LSP listening on %s\n", addr)

	// The group connects through the framed TCP transport: one pooled
	// connection, reused by both queries.
	pool := ppgnn.NewPool(addr.String())
	pool.Size = 1
	defer pool.Close()
	var meter ppgnn.Meter

	p := ppgnn.DefaultParams(4)
	p.KeyBits = 512
	p.Variant = ppgnn.PPGNNOPT // the communication-optimal variant
	group, err := ppgnn.NewGroup(p, []ppgnn.Point{
		{X: 0.31, Y: 0.42}, {X: 0.36, Y: 0.40}, {X: 0.29, Y: 0.45}, {X: 0.33, Y: 0.47},
	}, rand.New(rand.NewSource(5)))
	if err != nil {
		log.Fatal(err)
	}

	for round := 1; round <= 2; round++ {
		res, err := group.Run(pool, &meter)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nquery %d: %d POIs\n", round, len(res.Points))
		for i, pt := range res.Points {
			fmt.Printf("  %d. (%.4f, %.4f)\n", i+1, pt.X, pt.Y)
		}
	}
	fmt.Printf("\ncosts over both queries: %v\n", meter.Snapshot())
}
