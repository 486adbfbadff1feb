package svc

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"ppgnn/internal/core"
	"ppgnn/internal/geo"
	"ppgnn/internal/obs"
	"ppgnn/internal/paillier"
	"ppgnn/internal/transport"
)

// rerandConfig is twoTenantConfig with answer rerandomization switched
// on for "alpha".
func rerandConfig() *Config {
	cfg := twoTenantConfig()
	cfg.Tenants[1].Rerandomize = true
	return cfg
}

// runTenantQuery admits one session for the tenant and runs a full
// query against the granted LSP, returning the group for decryption
// checks.
func runTenantQuery(t *testing.T, s *Service, tenantID string) {
	t.Helper()
	g, err := core.NewGroup(testParams(2),
		[]geo.Point{{X: 0.3, Y: 0.4}, {X: 0.5, Y: 0.6}}, rand.New(rand.NewSource(41)))
	if err != nil {
		t.Fatal(err)
	}
	grant, err := s.Admit(tenantID)
	if err != nil {
		t.Fatal(err)
	}
	defer grant.Release()
	res, err := g.Run(core.LocalService{LSP: grant.LSP}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("empty answer")
	}
}

// TestRerandPoolsPersistAcrossEpochs pins the ISSUE 10 epoch-swap
// contract: a tenant's rerandomization PoolSet (and its warm factors)
// survives a config reload — only the tenant's LSP is rebuilt — while
// a tenant dropped from the config gets its pools closed, with any
// Precomputer still held by a draining session remaining usable.
func TestRerandPoolsPersistAcrossEpochs(t *testing.T) {
	s := newService(t, rerandConfig(), Options{Obs: obs.NewRegistry()})
	defer s.Close()

	ep := s.cur.Load()
	alpha := ep.tenants["alpha"]
	if !alpha.lsp.Rerandomize || alpha.lsp.RerandPools == nil {
		t.Fatal("rerandomizing tenant built without pools")
	}
	if def := ep.tenants[transport.DefaultTenant]; def.lsp.RerandPools != nil {
		t.Fatal("non-rerandomizing tenant got pools")
	}
	ps := alpha.lsp.RerandPools

	// Serve a query so the set holds a warm, partly drained pool.
	runTenantQuery(t, s, "alpha")
	if ps.Pools() == 0 {
		t.Fatal("rerandomized session opened no pool")
	}

	// Reload: same tenants, rebuilt datasets. The LSP is new, the
	// PoolSet — and the Precomputers inside it — are the same objects.
	cfg2 := rerandConfig()
	cfg2.Tenants[1].Synthetic = 500
	if err := s.Apply(cfg2); err != nil {
		t.Fatal(err)
	}
	ep2 := s.cur.Load()
	alpha2 := ep2.tenants["alpha"]
	if alpha2.lsp == alpha.lsp {
		t.Fatal("epoch swap did not rebuild the LSP")
	}
	if alpha2.lsp.RerandPools != ps {
		t.Fatal("epoch swap replaced the tenant's PoolSet; warm factors were thrown away")
	}
	if ps.Pools() == 0 {
		t.Fatal("epoch swap emptied the PoolSet")
	}
	runTenantQuery(t, s, "alpha")

	// Drop alpha: its PoolSet leaves the service map and is closed, but
	// a Precomputer still held (a draining session of the old epoch)
	// keeps working without a refiller.
	g, err := core.NewGroup(testParams(2),
		[]geo.Point{{X: 0.3, Y: 0.4}, {X: 0.5, Y: 0.6}}, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	held, err := ps.For(&g.Key.PublicKey, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg3 := &Config{Tenants: []TenantConfig{
		{ID: transport.DefaultTenant, Synthetic: 400, Seed: 3, MaxSessions: 8},
	}}
	if err := s.Apply(cfg3); err != nil {
		t.Fatal(err)
	}
	s.poolsMu.Lock()
	_, still := s.pools["alpha"]
	s.poolsMu.Unlock()
	if still {
		t.Fatal("dropped tenant's PoolSet still in the service map")
	}
	ct, err := g.Key.PublicKey.EncryptInt64(nil, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := held.RerandomizeBatch(context.Background(), nil, nil, []*paillier.Ciphertext{ct})
	if err != nil {
		t.Fatalf("closed set's Precomputer unusable: %v", err)
	}
	if got, err := g.Key.Decrypt(out[0]); err != nil || got.Int64() != 9 {
		t.Fatalf("rerandomize after close: got %v, %v", got, err)
	}
}

// TestPoolTargetHintClamps pins the admission-driven sizing: the hint
// floors at DefaultPoolTarget, scales with in-flight sessions, doubles
// under a fast session-cost EWMA, and clamps at 64×DefaultPoolTarget.
func TestPoolTargetHintClamps(t *testing.T) {
	s := newService(t, twoTenantConfig(), Options{Obs: obs.NewRegistry()})
	defer s.Close()
	const base = DefaultPoolTarget
	if got := s.poolTargetHint(); got != base {
		t.Fatalf("idle hint %d, want the floor %d", got, base)
	}
	s.inflight.Add(3)
	if got := s.poolTargetHint(); got != 4*base {
		t.Fatalf("hint with 3 in flight = %d, want %d", got, 4*base)
	}
	s.costEWMA.Store(int64(5 * time.Millisecond))
	if got := s.poolTargetHint(); got != 8*base {
		t.Fatalf("fast-turnover hint = %d, want %d", got, 8*base)
	}
	s.inflight.Add(1000)
	if got := s.poolTargetHint(); got != 64*base {
		t.Fatalf("burst hint = %d, want clamp %d", got, 64*base)
	}
	s.inflight.Add(-1003)
}

// TestParseConfigRerandomize checks the new tenant knob round-trips
// through the strict JSON config parser.
func TestParseConfigRerandomize(t *testing.T) {
	cfg, err := ParseConfig([]byte(`{"tenants": [
		{"id": "default", "synthetic": 100, "max_sessions": 2, "rerandomize": true}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Tenants[0].Rerandomize {
		t.Fatal("rerandomize flag lost in parsing")
	}
}
