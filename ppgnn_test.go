package ppgnn

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func fastParams(n int) Params {
	p := DefaultParams(n)
	p.KeyBits = 256
	p.D = 5
	p.Delta = 10
	if n == 1 {
		p.Delta = p.D
	}
	p.K = 4
	return p
}

func TestPublicAPIQuickstart(t *testing.T) {
	pois := SyntheticDataset(1, 5000)
	server := NewServer(pois, UnitSpace)
	p := fastParams(3)
	group, err := NewGroup(p, []Point{
		{X: 0.21, Y: 0.35}, {X: 0.25, Y: 0.31}, {X: 0.23, Y: 0.40},
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	var m Meter
	res, err := group.Run(LocalMetered(server, &m), &m)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("empty answer")
	}
	s := m.Snapshot()
	if s.TotalBytes() == 0 || s.LSPTime == 0 {
		t.Fatalf("cost accounting incomplete: %v", s)
	}
	if !strings.Contains(s.String(), "comm=") {
		t.Fatal("snapshot String() malformed")
	}
}

func TestPublicAPIVariants(t *testing.T) {
	pois := SyntheticDataset(2, 2000)
	server := NewServer(pois, UnitSpace)
	locs := []Point{{X: 0.4, Y: 0.4}, {X: 0.6, Y: 0.6}}
	var first []Point
	for _, v := range []Variant{PPGNN, PPGNNOPT, Naive} {
		p := fastParams(2)
		p.Variant = v
		p.NoSanitize = true
		g, err := NewGroup(p, locs, rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		res, err := g.Run(Local(server), nil)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if first == nil {
			first = res.Points
			continue
		}
		if len(res.Points) != len(first) {
			t.Fatalf("%v: variant answers differ in length", v)
		}
		for i := range first {
			if res.Points[i] != first[i] {
				t.Fatalf("%v: variant answers differ at rank %d", v, i)
			}
		}
	}
}

func TestPublicAPIOverTCP(t *testing.T) {
	pois := SyntheticDataset(3, 1000)
	server := NewServer(pois, UnitSpace)
	srv, err := ListenAndServe(server, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr, err := srv.Addr()
	if err != nil {
		t.Fatal(err)
	}
	cli := NewPool(addr.String())
	defer cli.Close()
	p := fastParams(2)
	p.NoSanitize = true
	g, err := NewGroup(p, []Point{{X: 0.1, Y: 0.1}, {X: 0.2, Y: 0.2}}, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run(cli, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != p.K {
		t.Fatalf("got %d POIs over TCP, want %d", len(res.Points), p.K)
	}
}

func TestDatasets(t *testing.T) {
	if got := len(SequoiaDataset()); got != 62556 {
		t.Fatalf("Sequoia substitute has %d POIs", got)
	}
	if got := len(SyntheticDataset(7, 123)); got != 123 {
		t.Fatalf("synthetic has %d POIs", got)
	}
	pois, err := LoadDataset(strings.NewReader("1 2\n3 4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pois) != 2 {
		t.Fatalf("loaded %d POIs", len(pois))
	}
}

func TestLoadDatasetFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pois.txt")
	if err := os.WriteFile(path, []byte("0 0\n10 0\n10 10\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	pois, err := LoadDatasetFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pois) != 3 {
		t.Fatalf("loaded %d POIs", len(pois))
	}
	if _, err := LoadDatasetFile(filepath.Join(dir, "missing.txt")); err == nil {
		t.Fatal("missing file accepted")
	}
}
