package svc

import (
	"strings"
	"testing"
)

// TestParseConfigValid: a well-formed two-tenant document round-trips
// into the expected struct.
func TestParseConfigValid(t *testing.T) {
	cfg, err := ParseConfig([]byte(`{
		"tenants": [
			{"id": "default", "synthetic": 500, "max_sessions": 8},
			{"id": "alpha", "dataset": "/data/alpha.txt", "max_sessions": 2, "max_locations": 64}
		],
		"max_in_flight": 16
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Tenants) != 2 || cfg.MaxInFlight != 16 {
		t.Fatalf("parsed %+v", cfg)
	}
	if cfg.Tenants[1].ID != "alpha" || cfg.Tenants[1].Dataset != "/data/alpha.txt" ||
		cfg.Tenants[1].MaxSessions != 2 || cfg.Tenants[1].MaxLocations != 64 {
		t.Fatalf("tenant alpha parsed as %+v", cfg.Tenants[1])
	}
}

// TestParseConfigRejects drives every reject path of the reload
// validator. Each document must fail with an error mentioning the
// offending construct — reloads are operator-facing, so the message is
// part of the contract.
func TestParseConfigRejects(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{
			name: "not json",
			doc:  `tenants: [..]`,
			want: "config",
		},
		{
			name: "unknown field",
			doc:  `{"tenants": [{"id": "a", "synthetic": 10, "max_sessions": 1}], "max_conns": 5}`,
			want: "max_conns",
		},
		{
			name: "retired field shards",
			doc:  `{"tenants": [{"id": "a", "synthetic": 10, "max_sessions": 1, "shards": 8}]}`,
			want: `"shards"`,
		},
		{
			name: "retired field prune_grid",
			doc:  `{"tenants": [{"id": "a", "synthetic": 10, "max_sessions": 1, "prune_grid": true}]}`,
			want: `"prune_grid"`,
		},
		{
			name: "trailing garbage",
			doc:  `{"tenants": [{"id": "a", "synthetic": 10, "max_sessions": 1}]} {"again": true}`,
			want: "trailing data",
		},
		{
			name: "no tenants",
			doc:  `{"tenants": []}`,
			want: "no tenants",
		},
		{
			name: "duplicate tenant ids",
			doc: `{"tenants": [
				{"id": "a", "synthetic": 10, "max_sessions": 1},
				{"id": "a", "synthetic": 10, "max_sessions": 1}]}`,
			want: "duplicate tenant id",
		},
		{
			name: "zero quota",
			doc:  `{"tenants": [{"id": "a", "synthetic": 10, "max_sessions": 0}]}`,
			want: "max_sessions",
		},
		{
			name: "negative quota",
			doc:  `{"tenants": [{"id": "a", "synthetic": 10, "max_sessions": -3}]}`,
			want: "max_sessions",
		},
		{
			name: "empty tenant id",
			doc:  `{"tenants": [{"id": "", "synthetic": 10, "max_sessions": 1}]}`,
			want: "empty tenant id",
		},
		{
			name: "tenant id charset",
			doc:  `{"tenants": [{"id": "Alpha!", "synthetic": 10, "max_sessions": 1}]}`,
			want: "not in [a-z0-9._-]",
		},
		{
			name: "tenant id too long",
			doc: `{"tenants": [{"id": "` + strings.Repeat("x", 65) +
				`", "synthetic": 10, "max_sessions": 1}]}`,
			want: "max 64",
		},
		{
			name: "no dataset source",
			doc:  `{"tenants": [{"id": "a", "max_sessions": 1}]}`,
			want: "needs a dataset",
		},
		{
			name: "two dataset sources",
			doc:  `{"tenants": [{"id": "a", "dataset": "f.txt", "synthetic": 10, "max_sessions": 1}]}`,
			want: "mutually exclusive",
		},
		{
			name: "negative synthetic",
			doc:  `{"tenants": [{"id": "a", "synthetic": -1, "max_sessions": 1}]}`,
			want: "negative",
		},
		{
			name: "negative max_in_flight",
			doc:  `{"tenants": [{"id": "a", "synthetic": 10, "max_sessions": 1}], "max_in_flight": -1}`,
			want: "max_in_flight",
		},
		{
			name: "negative max_locations",
			doc:  `{"tenants": [{"id": "a", "synthetic": 10, "max_sessions": 1, "max_locations": -5}]}`,
			want: "max_locations",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg, err := ParseConfig([]byte(c.doc))
			if err == nil {
				t.Fatalf("accepted %s as %+v", c.doc, cfg)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestMissingDatasetFileRejectsAtBuild: a config naming a nonexistent
// dataset file parses fine (Validate is pure) but fails the epoch build,
// so New refuses to start on it and a reload to it is rejected.
func TestMissingDatasetFileRejectsAtBuild(t *testing.T) {
	doc := []byte(`{"tenants": [{"id": "default", "dataset": "/nonexistent/points.txt", "max_sessions": 1}]}`)
	cfg, err := ParseConfig(doc)
	if err != nil {
		t.Fatalf("pure validation opened the filesystem: %v", err)
	}
	if _, err := New(cfg, Options{}); err == nil {
		t.Fatal("service started on a missing dataset file")
	}
}
