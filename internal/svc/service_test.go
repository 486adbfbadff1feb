package svc

import (
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ppgnn/internal/core"
	"ppgnn/internal/geo"
	"ppgnn/internal/obs"
	"ppgnn/internal/transport"
)

func testParams(n int) core.Params {
	p := core.DefaultParams(n)
	p.KeyBits = 256
	p.D = 5
	p.Delta = 10
	p.K = 4
	p.Variant = core.VariantPPGNN
	p.NoSanitize = true
	return p
}

// twoTenantConfig is the standard fixture: a default tenant and "alpha",
// each on its own small synthetic dataset.
func twoTenantConfig() *Config {
	return &Config{Tenants: []TenantConfig{
		{ID: transport.DefaultTenant, Synthetic: 400, Seed: 3, MaxSessions: 8},
		{ID: "alpha", Synthetic: 400, Seed: 7, MaxSessions: 8},
	}}
}

func newService(t *testing.T, cfg *Config, opts Options) *Service {
	t.Helper()
	if opts.Obs == nil {
		opts.Obs = obs.NewRegistry()
	}
	s, err := New(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// counterValue sums a counter family's series matching the given labels.
func counterValue(reg *obs.Registry, name string, labels ...obs.Label) int64 {
	return reg.Counter(name, labels...).Value()
}

// TestServiceServesTenantsEndToEnd: a transport.Server admitted by the
// service routes sessions to per-tenant LSPs; both the tenant-framed and
// the legacy tenantless client get correct answers.
func TestServiceServesTenantsEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	s := newService(t, twoTenantConfig(), Options{Obs: reg})
	srv := transport.NewServer(nil)
	srv.Admitter = s
	srv.OnSessionPanic = s.OnSessionPanic
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	for _, tenant := range []string{"", "alpha"} {
		g, err := core.NewGroup(testParams(2),
			[]geo.Point{{X: 0.3, Y: 0.4}, {X: 0.5, Y: 0.6}}, rand.New(rand.NewSource(40)))
		if err != nil {
			t.Fatal(err)
		}
		cli := transport.NewPool(addr.String())
		cli.Size = 1
		cli.MaxRetries = -1
		cli.Tenant = tenant
		res, err := g.Run(cli, nil)
		cli.Close()
		if err != nil {
			t.Fatalf("tenant %q: %v", tenant, err)
		}
		if len(res.Points) == 0 {
			t.Fatalf("tenant %q: empty answer", tenant)
		}
	}
	if got := counterValue(reg, "svc_admissions_total", obs.L("tenant", "default"), obs.L("admission", "ok")); got != 1 {
		t.Fatalf("default-tenant ok admissions = %d, want 1", got)
	}
	if got := counterValue(reg, "svc_admissions_total", obs.L("tenant", "t0"), obs.L("admission", "ok")); got != 1 {
		t.Fatalf("slot-t0 ok admissions = %d, want 1", got)
	}
	if n := s.InFlight(); n != 0 {
		t.Fatalf("in-flight %d after all sessions released", n)
	}
	if n := s.LiveEpochs(); n != 1 {
		t.Fatalf("%d live epochs in steady state", n)
	}
}

// TestQuotaShed: the per-tenant session quota sheds with a typed
// BusyError carrying a retry-after hint, and a release frees the slot.
func TestQuotaShed(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := twoTenantConfig()
	cfg.Tenants[1].MaxSessions = 1
	s := newService(t, cfg, Options{Obs: reg})

	g1, err := s.Admit("alpha")
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Admit("alpha")
	var be *transport.BusyError
	if !errors.As(err, &be) || be.Reason != "quota" {
		t.Fatalf("second session got %v, want quota BusyError", err)
	}
	if be.RetryAfter <= 0 {
		t.Fatalf("shed without a retry-after hint: %+v", be)
	}
	// The default tenant is not starved by alpha's quota.
	gd, err := s.Admit(transport.DefaultTenant)
	if err != nil {
		t.Fatalf("default tenant starved by alpha quota: %v", err)
	}
	gd.Release()
	g1.Release()
	g2, err := s.Admit("alpha")
	if err != nil {
		t.Fatalf("slot not freed by release: %v", err)
	}
	g2.Release()
	if got := counterValue(reg, "svc_admissions_total", obs.L("tenant", "t0"), obs.L("admission", "quota")); got != 1 {
		t.Fatalf("quota sheds = %d, want 1", got)
	}
}

// TestOverloadGate: the global in-flight cap sheds across tenants, with
// the "overload" reason.
func TestOverloadGate(t *testing.T) {
	cfg := twoTenantConfig()
	cfg.MaxInFlight = 1
	s := newService(t, cfg, Options{})
	g1, err := s.Admit(transport.DefaultTenant)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Admit("alpha")
	var be *transport.BusyError
	if !errors.As(err, &be) || be.Reason != "overload" {
		t.Fatalf("over the global cap got %v, want overload BusyError", err)
	}
	g1.Release()
	g2, err := s.Admit("alpha")
	if err != nil {
		t.Fatalf("gate not released: %v", err)
	}
	g2.Release()
}

// TestUnknownTenantRejected: an unknown tenant is a protocol-fatal
// rejection, not a shed.
func TestUnknownTenantRejected(t *testing.T) {
	s := newService(t, twoTenantConfig(), Options{})
	_, err := s.Admit("ghost")
	if err == nil {
		t.Fatal("unknown tenant admitted")
	}
	var be *transport.BusyError
	if errors.As(err, &be) {
		t.Fatalf("unknown tenant shed as busy: %v", err)
	}
	if !strings.Contains(err.Error(), "unknown tenant") {
		t.Fatalf("err = %v", err)
	}
}

// TestReleaseIdempotent: double-releasing a grant must not corrupt the
// in-flight accounting.
func TestReleaseIdempotent(t *testing.T) {
	s := newService(t, twoTenantConfig(), Options{})
	g, err := s.Admit("alpha")
	if err != nil {
		t.Fatal(err)
	}
	g.Release()
	g.Release()
	if n := s.InFlight(); n != 0 {
		t.Fatalf("in-flight %d after double release", n)
	}
}

// TestApplySwapsEpochAndRetires: a reload pins in-flight sessions to
// their epoch; the old epoch retires only when its last session ends.
func TestApplySwapsEpochAndRetires(t *testing.T) {
	reg := obs.NewRegistry()
	s := newService(t, twoTenantConfig(), Options{Obs: reg})
	if s.Epoch() != 1 {
		t.Fatalf("initial epoch %d, want 1", s.Epoch())
	}
	held, err := s.Admit("alpha")
	if err != nil {
		t.Fatal(err)
	}
	next := twoTenantConfig()
	next.Tenants[1].MaxSessions = 3
	if err := s.Apply(next); err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != 2 {
		t.Fatalf("epoch %d after apply, want 2", s.Epoch())
	}
	if n := s.LiveEpochs(); n != 2 {
		t.Fatalf("%d live epochs with an old-epoch session in flight, want 2", n)
	}
	held.Release()
	if n := s.LiveEpochs(); n != 1 {
		t.Fatalf("%d live epochs after the old session drained, want 1 (epoch leak)", n)
	}
	if got := counterValue(reg, "svc_reloads_total", obs.L("result", "applied")); got != 1 {
		t.Fatalf("applied reloads = %d, want 1", got)
	}
}

// TestApplyRejectedKeepsServing: a bad new config (invalid, or a missing
// dataset file) is rejected; the current epoch keeps serving and the
// service returns to ready.
func TestApplyRejectedKeepsServing(t *testing.T) {
	reg := obs.NewRegistry()
	s := newService(t, twoTenantConfig(), Options{Obs: reg})
	bad := &Config{Tenants: []TenantConfig{
		{ID: "a", Synthetic: 10, MaxSessions: 1},
		{ID: "a", Synthetic: 10, MaxSessions: 1},
	}}
	if err := s.Apply(bad); err == nil {
		t.Fatal("duplicate-id config applied")
	}
	missing := &Config{Tenants: []TenantConfig{
		{ID: transport.DefaultTenant, Dataset: "/nonexistent/points.txt", MaxSessions: 1},
	}}
	if err := s.Apply(missing); err == nil {
		t.Fatal("missing-dataset config applied")
	}
	if s.Epoch() != 1 {
		t.Fatalf("rejected reloads moved the epoch to %d", s.Epoch())
	}
	if !s.Ready() {
		t.Fatalf("service stuck %q after rejected reloads", s.State())
	}
	if g, err := s.Admit("alpha"); err != nil {
		t.Fatalf("old epoch stopped serving: %v", err)
	} else {
		g.Release()
	}
	if got := counterValue(reg, "svc_reloads_total", obs.L("result", "rejected")); got != 2 {
		t.Fatalf("rejected reloads = %d, want 2", got)
	}
}

// TestReloadFromFile: the SIGHUP path end to end — rewrite the file,
// Reload applies it; corrupt the file, Reload rejects and keeps serving.
func TestReloadFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "svc.json")
	write := func(doc string) {
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(`{"tenants": [{"id": "default", "synthetic": 300, "max_sessions": 4}]}`)
	cfg, err := LoadConfigFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg, Options{ConfigPath: path, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	write(`{"tenants": [
		{"id": "default", "synthetic": 300, "max_sessions": 4},
		{"id": "beta", "synthetic": 300, "max_sessions": 2}]}`)
	if err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	if g, err := s.Admit("beta"); err != nil {
		t.Fatalf("reloaded tenant not served: %v", err)
	} else {
		g.Release()
	}
	write(`{"tenants": [{]`)
	if err := s.Reload(); err == nil {
		t.Fatal("corrupt config applied")
	}
	if g, err := s.Admit("beta"); err != nil {
		t.Fatalf("rejected reload broke serving: %v", err)
	} else {
		g.Release()
	}
}

// TestHealthEndpoints: /healthz always answers; /readyz follows the
// lifecycle state, including the mid-reload unready window.
func TestHealthEndpoints(t *testing.T) {
	var sawUnready bool
	reg := obs.NewRegistry()
	opts := Options{Obs: reg}
	opts.reloadHook = func(stage string) {
		// Inside apply the ready gauge must be down: a health checker
		// polling during the swap sees 503.
		if stage == "start" && reg.Gauge("svc_ready").Value() == 0 {
			sawUnready = true
		}
	}
	s := newService(t, twoTenantConfig(), opts)
	mux := http.NewServeMux()
	s.RegisterHealth(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		buf := make([]byte, 64)
		n, _ := resp.Body.Read(buf)
		return resp.StatusCode, strings.TrimSpace(string(buf[:n]))
	}
	if code, body := get("/healthz"); code != http.StatusOK || body != "ok" {
		t.Fatalf("healthz = %d %q", code, body)
	}
	if code, body := get("/readyz"); code != http.StatusOK || body != "ready" {
		t.Fatalf("readyz = %d %q", code, body)
	}
	if err := s.Apply(twoTenantConfig()); err != nil {
		t.Fatal(err)
	}
	if !sawUnready {
		t.Fatal("readiness never dropped during the reload swap")
	}
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz = %d after reload, want 200", code)
	}
	s.Close()
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || body != "draining" {
		t.Fatalf("readyz while draining = %d %q", code, body)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz while draining = %d, want 200 (liveness outlives readiness)", code)
	}
}

// TestWatchdogTrips: repeated session panics inside the window exhaust
// the crash budget — the service goes permanently unready and Fatal
// fires exactly once.
func TestWatchdogTrips(t *testing.T) {
	reg := obs.NewRegistry()
	s := newService(t, twoTenantConfig(), Options{Obs: reg, CrashBudget: 3, CrashWindow: time.Minute})
	for i := 0; i < 2; i++ {
		s.OnSessionPanic()
		if !s.Ready() {
			t.Fatalf("watchdog tripped after %d panics, budget is 3", i+1)
		}
	}
	s.OnSessionPanic()
	if s.Ready() || s.State() != "failed" {
		t.Fatalf("state %q after the budget, want failed", s.State())
	}
	select {
	case <-s.Fatal():
	case <-time.After(time.Second):
		t.Fatal("Fatal did not fire")
	}
	// Further panics and reloads cannot resurrect a failed service.
	s.OnSessionPanic()
	if err := s.Apply(twoTenantConfig()); err != nil {
		t.Fatal(err)
	}
	if s.Ready() {
		t.Fatal("failed service came back ready after a reload")
	}
	if got := counterValue(reg, "svc_watchdog_trips_total"); got != 1 {
		t.Fatalf("watchdog trips = %d, want 1", got)
	}
}

// TestWatchdogWindowSlides: panics spread wider than the window never
// trip the budget.
func TestWatchdogWindowSlides(t *testing.T) {
	w := watchdog{budget: 3, window: 100 * time.Millisecond}
	base := time.Now()
	for i := 0; i < 10; i++ {
		if w.record(base.Add(time.Duration(i) * 60 * time.Millisecond)) {
			t.Fatalf("tripped at spread-out panic %d", i)
		}
	}
	// Three inside one window do trip.
	w2 := watchdog{budget: 3, window: 100 * time.Millisecond}
	w2.record(base)
	w2.record(base.Add(10 * time.Millisecond))
	if !w2.record(base.Add(20 * time.Millisecond)) {
		t.Fatal("three panics in one window did not trip")
	}
}
