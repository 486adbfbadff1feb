package svc

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ppgnn/internal/core"
	"ppgnn/internal/dataset"
	"ppgnn/internal/geo"
	"ppgnn/internal/obs"
	"ppgnn/internal/paillier"
	"ppgnn/internal/rtree"
	"ppgnn/internal/transport"
)

// Options configures a Service.
type Options struct {
	// ConfigPath is the file Reload re-reads (SIGHUP). Empty is fine for
	// embedded use — call Apply with a parsed Config instead.
	ConfigPath string
	// Workers is copied to every tenant LSP (see core.LSP.Workers).
	Workers int
	// CrashBudget is the number of recovered session panics within
	// CrashWindow that trips the watchdog (default DefaultCrashBudget;
	// negative disables).
	CrashBudget int
	// CrashWindow is the watchdog's sliding window (default
	// DefaultCrashWindow).
	CrashWindow time.Duration
	// Obs receives the service's telemetry (nil = obs.Default).
	Obs *obs.Registry
	// Logf, when set, receives lifecycle diagnostics.
	Logf func(format string, args ...interface{})
	// TraceSink receives flight-recorder dumps when the service trips an
	// incident trigger (watchdog, rejected reload). Nil logs a summary
	// line via Logf instead; the full dump stays readable at /traces.
	TraceSink func(*obs.TraceDump)

	// reloadHook, test-only: observes the not-ready window inside Apply.
	reloadHook func(stage string)
}

// epoch is one applied configuration: a full set of tenants, each with
// its own LSP. Sessions pin the epoch they were admitted under, so a
// reload never yanks an LSP out from under an in-flight query; an old
// epoch is retired (and its LSPs released to the GC) when its last
// session ends.
type epoch struct {
	seq     int64
	cfg     *Config
	tenants map[string]*tenant
	refs    atomic.Int64
}

// tenant is one epoch's view of a named dataset.
type tenant struct {
	cfg  TenantConfig
	lsp  *core.LSP
	slot string // closed metric-slot enum, never the tenant name
	// inflight counts admitted sessions against cfg.MaxSessions.
	inflight atomic.Int64
}

// Service is the lifecycle layer: a transport.SessionAdmitter wired to a
// tenant manager, an epoch-based hot-reload scheme, health endpoints,
// and a crash-budget watchdog. Create with New, plug into a
// transport.Server via its Admitter and OnSessionPanic fields, and run
// Reload on SIGHUP.
type Service struct {
	opts Options
	reg  *obs.Registry

	cur atomic.Pointer[epoch]

	mu       sync.Mutex
	epochs   map[*epoch]struct{}
	seq      int64
	closed   bool
	state    string // "ready" | "reloading" | "draining" | "failed"
	inflight atomic.Int64

	// costEWMA is the smoothed session duration in nanoseconds; the
	// retry-after hint on sheds. Stored atomically so Release never locks.
	costEWMA atomic.Int64

	// pools holds the per-tenant rerandomization PoolSets, keyed by
	// tenant ID — deliberately OUTSIDE the epoch: pooled r^{N^s} factors
	// are key material, not index state, so a config reload must not
	// throw away a warm pool. An epoch swap rebinds the surviving pools'
	// metric slots and closes the pools of removed tenants (their
	// Precomputers stay usable, refiller-less, for draining sessions).
	// Guarded by poolsMu, never s.mu, so Admit's hot path stays lock-free.
	poolsMu sync.Mutex
	pools   map[string]*paillier.PoolSet

	watchdog watchdog

	// fatal closes when the watchdog trips; the command drains and exits.
	fatal     chan struct{}
	fatalOnce sync.Once

	mAdmit    func(slot, admission string) *obs.Counter
	gInflight func(slot string) *obs.Gauge
	hCost     *obs.Histogram
}

// The crash-budget watchdog's defaults: DefaultCrashBudget recovered
// session panics within DefaultCrashWindow fail the process.
const (
	DefaultCrashBudget = 5
	DefaultCrashWindow = time.Minute
)

// New builds a Service and applies cfg as its first epoch. The initial
// configuration must be valid and its datasets loadable — a service that
// cannot serve its first epoch should fail at startup, not limp.
func New(cfg *Config, opts Options) (*Service, error) {
	if opts.CrashBudget == 0 {
		opts.CrashBudget = DefaultCrashBudget
	}
	if opts.CrashWindow <= 0 {
		opts.CrashWindow = DefaultCrashWindow
	}
	reg := opts.Obs
	if reg == nil {
		reg = obs.Default()
	}
	s := &Service{
		opts:   opts,
		reg:    reg,
		epochs: make(map[*epoch]struct{}),
		pools:  make(map[string]*paillier.PoolSet),
		state:  "reloading",
		fatal:  make(chan struct{}),
	}
	s.watchdog.budget = opts.CrashBudget
	s.watchdog.window = opts.CrashWindow
	s.mAdmit = func(slot, admission string) *obs.Counter {
		return reg.Counter("svc_admissions_total", obs.L("tenant", slot), obs.L("admission", admission))
	}
	s.gInflight = func(slot string) *obs.Gauge {
		return reg.Gauge("svc_tenant_inflight", obs.L("tenant", slot))
	}
	s.hCost = reg.Histogram("svc_session_cost_seconds", obs.TimeBuckets)
	if err := s.apply(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Service) logf(format string, args ...interface{}) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// buildEpoch loads every tenant's dataset and constructs its LSP. This
// is the failable half of a reload: it runs entirely before the swap, so
// a missing dataset file or an unreadable point format rejects the new
// config while the old epoch keeps serving untouched.
func (s *Service) buildEpoch(cfg *Config) (*epoch, error) {
	ep := &epoch{cfg: cfg, tenants: make(map[string]*tenant, len(cfg.Tenants))}
	slot := 0
	for _, tc := range cfg.Tenants {
		var items []rtree.Item
		var err error
		switch {
		case tc.Dataset != "":
			items, err = dataset.LoadFile(tc.Dataset)
		default:
			seed := tc.Seed
			if seed == 0 {
				seed = 1
			}
			items = dataset.Synthetic(seed, tc.Synthetic)
		}
		if err != nil {
			return nil, fmt.Errorf("svc: tenant %q: %w", tc.ID, err)
		}
		lsp := core.NewLSP(items, geo.UnitRect)
		lsp.Workers = s.opts.Workers
		if tc.Seed != 0 {
			lsp.SanitizeSeed = tc.Seed
		}
		lsp.Rerandomize = tc.Rerandomize
		t := &tenant{cfg: tc, lsp: lsp, slot: tenantSlot(tc.ID, &slot)}
		ep.tenants[tc.ID] = t
	}
	return ep, nil
}

// DefaultPoolTarget is the floor, in r^{N^s} factors per (key, degree)
// pool, the refillers keep warm.
const DefaultPoolTarget = 16

// poolTargetHint converts the service's admission signals into a pool
// size: one DefaultPoolTarget of headroom per admitted session (each
// session's answer rerandomization drains a batch), doubled when the
// admission cost EWMA says sessions turn over in well under a refill
// breath — fast sessions cycle several batches through a pool per tick.
// Clamped to [DefaultPoolTarget, 64×DefaultPoolTarget] so an admission
// burst cannot balloon pool memory; the refiller's own drain EWMA sizes
// on top of this hint.
func (s *Service) poolTargetHint() int {
	want := DefaultPoolTarget * (int(s.inflight.Load()) + 1)
	if c := time.Duration(s.costEWMA.Load()); c > 0 && c < 50*time.Millisecond {
		want *= 2
	}
	if max := 64 * DefaultPoolTarget; want > max {
		want = max
	}
	return want
}

// poolSetFor returns the tenant's PoolSet, creating it on first use and
// rebinding its metric slot (slots can move between epochs as the
// config order changes).
func (s *Service) poolSetFor(id, slot string) *paillier.PoolSet {
	s.poolsMu.Lock()
	defer s.poolsMu.Unlock()
	if ps, ok := s.pools[id]; ok {
		ps.SetTenant(slot)
		return ps
	}
	ps := paillier.NewPoolSet(paillier.PoolSetConfig{
		Tenant: slot,
		Refill: paillier.RefillerOptions{Target: s.poolTargetHint},
	})
	s.pools[id] = ps
	return ps
}

// bindPools attaches the persistent per-tenant PoolSets to a freshly
// built epoch's rerandomizing LSPs and closes the pools of tenants the
// new config dropped (or switched off). Runs only after buildEpoch
// succeeded: a rejected reload must not disturb the serving pools.
func (s *Service) bindPools(ep *epoch) {
	for id, t := range ep.tenants {
		if t.cfg.Rerandomize {
			t.lsp.RerandPools = s.poolSetFor(id, t.slot)
		}
	}
	s.poolsMu.Lock()
	var stale []*paillier.PoolSet
	for id, ps := range s.pools {
		if t, ok := ep.tenants[id]; !ok || !t.cfg.Rerandomize {
			stale = append(stale, ps)
			delete(s.pools, id)
		}
	}
	s.poolsMu.Unlock()
	// Close outside poolsMu: Close waits for refiller goroutines, and a
	// draining session of a retiring epoch can still use the closed
	// set's Precomputers (refiller-less) safely.
	for _, ps := range stale {
		ps.Close()
	}
}

// tenantSlot maps a tenant id onto the closed metric-slot enum: the
// default tenant keeps its name, the first eight non-default tenants get
// "t0".."t7" in config order, the rest clamp to the contract's "other".
func tenantSlot(id string, next *int) string {
	if id == transport.DefaultTenant {
		return "default"
	}
	n := *next
	*next++
	if n > 7 {
		return obs.OtherValue
	}
	return fmt.Sprintf("t%d", n)
}

// Apply validates and installs cfg as a new epoch: new sessions admit
// against it immediately, in-flight sessions finish on the epoch they
// started under. On rejection the current epoch keeps serving and the
// error describes why. Apply is what Reload calls after re-reading the
// config file; embedded users may call it directly.
func (s *Service) Apply(cfg *Config) error {
	if err := cfg.Validate(); err != nil {
		s.reg.Counter("svc_reloads_total", obs.L("result", "rejected")).Inc()
		s.dumpTraces("reload_rejected")
		return err
	}
	if err := s.apply(cfg); err != nil {
		s.reg.Counter("svc_reloads_total", obs.L("result", "rejected")).Inc()
		s.dumpTraces("reload_rejected")
		return err
	}
	s.reg.Counter("svc_reloads_total", obs.L("result", "applied")).Inc()
	return nil
}

// dumpTraces snapshots the flight recorder on an incident trigger: a
// tripped watchdog or a rejected reload. The queries that led up to the
// incident are exactly what the recorder retains, so the dump is taken
// before any drain discards them.
func (s *Service) dumpTraces(reason string) {
	d := s.reg.Recorder().Dump(reason)
	if s.opts.TraceSink != nil {
		s.opts.TraceSink(d)
		return
	}
	s.logf("svc: flight recorder dump (%s): %d recent, %d slow/failed traces retained",
		d.Reason, len(d.Recent), len(d.Slow))
}

// apply installs cfg without touching the reload counters (New's initial
// load is not a "reload"). The service is unready for the duration: a
// rolling deploy's health checker must route around a node mid-swap.
func (s *Service) apply(cfg *Config) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("svc: service is closed")
	}
	prev := s.state
	s.setStateLocked("reloading")
	if s.opts.reloadHook != nil {
		s.opts.reloadHook("start")
	}
	ep, err := s.buildEpoch(cfg)
	if err != nil {
		// Rejected: the old epoch (if any) keeps serving.
		if prev == "ready" {
			s.setStateLocked("ready")
		}
		if s.opts.reloadHook != nil {
			s.opts.reloadHook("rejected")
		}
		return err
	}
	s.bindPools(ep)
	s.seq++
	ep.seq = s.seq
	s.cur.Store(ep)
	s.epochs[ep] = struct{}{}
	s.retireLocked()
	s.reg.Gauge("svc_epoch").Set(ep.seq)
	s.reg.Gauge("svc_tenants").Set(int64(len(ep.tenants)))
	s.reg.Gauge("svc_epochs_live").Set(int64(len(s.epochs)))
	s.setStateLocked("ready")
	if s.opts.reloadHook != nil {
		s.opts.reloadHook("applied")
	}
	s.logf("svc: epoch %d applied (%d tenants)", ep.seq, len(ep.tenants))
	return nil
}

// Reload re-reads the config file and applies it. Bad files reject the
// reload and keep the current epoch serving; the caller (the SIGHUP
// handler) just logs the error.
func (s *Service) Reload() error {
	if s.opts.ConfigPath == "" {
		return fmt.Errorf("svc: no config path to reload from")
	}
	cfg, err := LoadConfigFile(s.opts.ConfigPath)
	if err != nil {
		s.reg.Counter("svc_reloads_total", obs.L("result", "rejected")).Inc()
		s.dumpTraces("reload_rejected")
		return err
	}
	return s.Apply(cfg)
}

// Admit implements transport.SessionAdmitter: route the session to its
// tenant in the current epoch, shed on the global overload gate or the
// tenant's quota, otherwise grant the tenant's LSP with the epoch pinned
// until the session releases.
func (s *Service) Admit(tenantID string) (*transport.SessionGrant, error) {
	ep := s.cur.Load()
	if ep == nil {
		return nil, &transport.BusyError{RetryAfter: s.retryAfterHint(), Reason: "overload"}
	}
	t, ok := ep.tenants[tenantID]
	if !ok {
		s.mAdmit(obs.OtherValue, "unknown").Inc()
		return nil, fmt.Errorf("unknown tenant %q", tenantID)
	}
	// Global overload gate first: it protects the process, quotas only
	// arbitrate between tenants.
	if max := ep.cfg.MaxInFlight; max > 0 && s.inflight.Load() >= int64(max) {
		s.mAdmit(t.slot, "overload").Inc()
		return nil, &transport.BusyError{RetryAfter: s.retryAfterHint(), Reason: "overload", Slot: t.slot}
	}
	if t.inflight.Add(1) > int64(t.cfg.MaxSessions) {
		t.inflight.Add(-1)
		s.mAdmit(t.slot, "quota").Inc()
		return nil, &transport.BusyError{RetryAfter: s.retryAfterHint(), Reason: "quota", Slot: t.slot}
	}
	s.inflight.Add(1)
	ep.refs.Add(1)
	s.mAdmit(t.slot, "ok").Inc()
	s.gInflight(t.slot).Set(t.inflight.Load())
	begin := time.Now()
	var once sync.Once
	release := func() {
		once.Do(func() {
			elapsed := time.Since(begin)
			s.hCost.Observe(elapsed.Seconds())
			s.updateCost(elapsed)
			s.gInflight(t.slot).Set(t.inflight.Add(-1))
			s.inflight.Add(-1)
			if ep.refs.Add(-1) == 0 {
				s.retire()
			}
		})
	}
	return &transport.SessionGrant{LSP: t.lsp, MaxLocations: t.cfg.MaxLocations, Release: release, Slot: t.slot}, nil
}

// updateCost folds one session's duration into the EWMA (α = 1/8).
func (s *Service) updateCost(elapsed time.Duration) {
	for {
		old := s.costEWMA.Load()
		var next int64
		if old == 0 {
			next = int64(elapsed)
		} else {
			next = old + (int64(elapsed)-old)/8
		}
		if s.costEWMA.CompareAndSwap(old, next) {
			return
		}
	}
}

// retryAfterHint is the backoff the service suggests to shed clients:
// roughly one smoothed session duration (a slot frees up about that far
// in the future), clamped to a sane wire range.
func (s *Service) retryAfterHint() time.Duration {
	const (
		floor = 10 * time.Millisecond
		ceil  = 2 * time.Second
	)
	d := time.Duration(s.costEWMA.Load())
	if d <= 0 {
		return 100 * time.Millisecond
	}
	if d < floor {
		return floor
	}
	if d > ceil {
		return ceil
	}
	return d
}

// retire drops epochs that are no longer current and carry no sessions.
func (s *Service) retire() {
	s.mu.Lock()
	s.retireLocked()
	s.mu.Unlock()
}

func (s *Service) retireLocked() {
	cur := s.cur.Load()
	for ep := range s.epochs {
		if ep != cur && ep.refs.Load() == 0 {
			delete(s.epochs, ep)
			s.logf("svc: epoch %d retired", ep.seq)
		}
	}
	s.reg.Gauge("svc_epochs_live").Set(int64(len(s.epochs)))
}

// LiveEpochs reports how many epochs still hold tenants — 1 in steady
// state; more only while old-epoch sessions drain. The reload leak test
// gates on it.
func (s *Service) LiveEpochs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.epochs)
}

// Epoch returns the current epoch's sequence number (0 before the first
// apply).
func (s *Service) Epoch() int64 {
	if ep := s.cur.Load(); ep != nil {
		return ep.seq
	}
	return 0
}

// InFlight reports currently admitted sessions.
func (s *Service) InFlight() int64 { return s.inflight.Load() }

// setStateLocked transitions the health state; "failed" (the tripped
// watchdog) is terminal.
func (s *Service) setStateLocked(state string) {
	if s.state == "failed" {
		return
	}
	s.state = state
	if state == "ready" {
		s.reg.Gauge("svc_ready").Set(1)
	} else {
		s.reg.Gauge("svc_ready").Set(0)
	}
}

// State returns the health state: "ready", "reloading", "draining", or
// "failed".
func (s *Service) State() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Ready reports whether the service should receive new traffic.
func (s *Service) Ready() bool { return s.State() == "ready" }

// Fatal closes when the crash-budget watchdog trips; the serving command
// watches it, drains, and exits nonzero so the supervisor restarts a
// fresh process.
func (s *Service) Fatal() <-chan struct{} { return s.fatal }

// OnSessionPanic feeds the crash-budget watchdog; wire it to
// transport.Server.OnSessionPanic. When the budget is exhausted the
// service goes permanently unready and Fatal fires — repeated session
// panics mean corrupted process state or a crash-of-death input, and a
// clean restart beats limping.
func (s *Service) OnSessionPanic() {
	if !s.watchdog.record(time.Now()) {
		return
	}
	s.mu.Lock()
	s.state = "failed"
	s.reg.Gauge("svc_ready").Set(0)
	s.mu.Unlock()
	s.reg.Counter("svc_watchdog_trips_total").Inc()
	s.logf("svc: crash budget exhausted (%d panics in %v): going unready",
		s.watchdog.budget, s.watchdog.window)
	s.dumpTraces("watchdog")
	s.fatalOnce.Do(func() { close(s.fatal) })
}

// Close marks the service draining: readyz fails, Admit sheds. The
// transport.Server's own Close drains the in-flight sessions.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.setStateLocked("draining")
	s.mu.Unlock()
	// Stop the pool refillers outside s.mu; draining sessions can keep
	// using the closed sets' Precomputers.
	s.poolsMu.Lock()
	pools := make([]*paillier.PoolSet, 0, len(s.pools))
	for _, ps := range s.pools {
		pools = append(pools, ps)
	}
	s.poolsMu.Unlock()
	for _, ps := range pools {
		ps.Close()
	}
}
