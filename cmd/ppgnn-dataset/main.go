// Command ppgnn-dataset generates, inspects, and converts POI datasets for
// the LSP.
//
// Usage:
//
//	ppgnn-dataset -gen out.txt [-n 62556] [-seed 20180326]   generate synthetic POIs
//	ppgnn-dataset -stats -file file.txt                      print dataset statistics
//	ppgnn-dataset -stats                                     statistics of the bundled substitute
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"ppgnn"
	"ppgnn/internal/dataset"
)

func main() {
	gen := flag.String("gen", "", "write a synthetic dataset to this path")
	n := flag.Int("n", dataset.SequoiaSize, "POI count for -gen")
	seed := flag.Int64("seed", dataset.DefaultSeed, "seed for -gen")
	stats := flag.Bool("stats", false, "print statistics of -file (or the bundled substitute)")
	file := flag.String("file", "", "dataset file for -stats")
	flag.Parse()

	switch {
	case *gen != "":
		items := dataset.Synthetic(*seed, *n)
		f, err := os.Create(*gen)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := dataset.Save(f, items); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d POIs to %s (seed %d)\n", len(items), *gen, *seed)
	case *stats:
		var items []ppgnn.POI
		var err error
		if *file != "" {
			items, err = ppgnn.LoadDatasetFile(*file)
			if err != nil {
				fatal(err)
			}
		} else {
			items = ppgnn.SequoiaDataset()
		}
		printStats(items)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// printStats reports counts, bounds, and a coarse clustering measure
// (max/mean occupancy over a 16×16 grid).
func printStats(items []ppgnn.POI) {
	if len(items) == 0 {
		fatal(fmt.Errorf("empty dataset"))
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	const g = 16
	var cells [g * g]int
	for _, it := range items {
		minX = math.Min(minX, it.P.X)
		minY = math.Min(minY, it.P.Y)
		maxX = math.Max(maxX, it.P.X)
		maxY = math.Max(maxY, it.P.Y)
		cx := int(it.P.X * g)
		cy := int(it.P.Y * g)
		if cx >= g {
			cx = g - 1
		}
		if cy >= g {
			cy = g - 1
		}
		if cx < 0 {
			cx = 0
		}
		if cy < 0 {
			cy = 0
		}
		cells[cy*g+cx]++
	}
	maxOcc, occupied := 0, 0
	for _, c := range cells {
		if c > maxOcc {
			maxOcc = c
		}
		if c > 0 {
			occupied++
		}
	}
	mean := float64(len(items)) / (g * g)
	fmt.Printf("POIs:          %d\n", len(items))
	fmt.Printf("bounds:        [%.4f, %.4f] x [%.4f, %.4f]\n", minX, maxX, minY, maxY)
	fmt.Printf("grid cells:    %d/%d occupied (16x16)\n", occupied, g*g)
	fmt.Printf("max/mean cell: %.1f (1.0 = uniform; >3 = clustered)\n", float64(maxOcc)/mean)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ppgnn-dataset:", err)
	os.Exit(1)
}
