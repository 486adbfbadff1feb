package group_test

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"

	"ppgnn/internal/core"
	"ppgnn/internal/dataset"
	"ppgnn/internal/faultnet"
	"ppgnn/internal/geo"
	"ppgnn/internal/group"
	"ppgnn/internal/obs"
	"ppgnn/internal/transport"
)

// runObservedSession runs one n=3 plain-mode session over real TCP member
// links, each link's connections impaired with the given faultnet latency,
// and returns the registry snapshot of its phase spans.
func runObservedSession(t *testing.T, latency time.Duration) *obs.Snapshot {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	locs := []geo.Point{
		{X: 0.2, Y: 0.3}, {X: 0.6, Y: 0.4}, {X: 0.5, Y: 0.8},
	}
	p := core.DefaultParams(3)
	p.KeyBits = 192
	p.D = 6
	p.Delta = 12
	p.K = 4
	p.Variant = core.VariantPPGNN
	p.NoSanitize = true
	coord, err := core.NewCoordinator(p, locs[0], rng)
	if err != nil {
		t.Fatal(err)
	}

	links := make([]group.Link, 2)
	for i := 0; i < 2; i++ {
		m := group.NewMember(locs[i+1], nil, rand.New(rand.NewSource(int64(i+10))))
		srv := transport.NewMemberServer(m)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		link := group.DialMember(addr.String())
		if latency > 0 {
			sched := make([]faultnet.Faults, 8)
			for j := range sched {
				sched[j] = faultnet.Faults{Seed: int64(j), Latency: latency}
			}
			link.DialFunc = faultnet.Dialer(sched...)
		}
		t.Cleanup(func() { link.Close() })
		links[i] = link
	}

	reg := obs.NewRegistry()
	s, err := group.NewSession(coord, links, group.Config{
		MemberTimeout: 5 * time.Second,
		Seed:          11,
		Obs:           reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	lsp := core.NewLSP(dataset.Synthetic(5, 400), geo.UnitRect)
	if _, err := s.Run(ctx, core.LocalService{LSP: lsp}); err != nil {
		t.Fatal(err)
	}
	return reg.Snapshot()
}

// TestLatencyAppearsInPhaseSpans is the faultnet knob assertion: delay
// injected on the member links must show up in the collect phase's span
// durations. One contribution exchange pays the latency at least twice
// (request write + reply read), so the collect span of the impaired run
// must exceed the clean run's by at least that much.
func TestLatencyAppearsInPhaseSpans(t *testing.T) {
	const latency = 25 * time.Millisecond

	clean := runObservedSession(t, 0)
	slow := runObservedSession(t, latency)

	ok := obs.L("outcome", "ok")
	ph := obs.L("phase", "collect")
	cleanH := clean.Histogram("ppgnn_phase_seconds", ph, ok)
	slowH := slow.Histogram("ppgnn_phase_seconds", ph, ok)
	if cleanH == nil || slowH == nil {
		t.Fatalf("collect span missing: clean=%v slow=%v", cleanH, slowH)
	}
	if cleanH.Count != 1 || slowH.Count != 1 {
		t.Fatalf("collect span counts: clean=%d slow=%d, want 1 each", cleanH.Count, slowH.Count)
	}
	floor := (2 * latency).Seconds()
	if slowH.Sum < floor {
		t.Fatalf("impaired collect span %.4fs, want ≥ %.4fs (2× injected latency)", slowH.Sum, floor)
	}
	if slowH.Sum < cleanH.Sum+floor/2 {
		t.Fatalf("impaired collect span %.4fs not measurably above clean %.4fs", slowH.Sum, cleanH.Sum)
	}

	// The whole-session span must dominate its phases.
	sess := slow.Histogram("ppgnn_phase_seconds", obs.L("phase", "session"), ok)
	if sess == nil || sess.Sum < slowH.Sum {
		t.Fatalf("session span %v should envelop collect %.4fs", sess, slowH.Sum)
	}
}

// TestSoakTelemetry re-runs crash-and-recover soak scenarios on the t=3
// threshold key, each with an isolated registry, and checks that the
// answer matches the plaintext oracle and the counters tell the story: a
// dropout with a recorded cause, a re-partition, two collect rounds, a
// quorum-sized decrypt round, and a phase row for every step of the
// session.
//
//   - crash: member 2 dies on its first request; the LSP is in process.
//   - remote_lsp: member 1's first two dials fail, so its first session
//     drops it; the LSP sits behind a transport.Server, reached through
//     a Pool whose first dial is refused, so the pool must retry.
func TestSoakTelemetry(t *testing.T) {
	r := newSoakRig(t)
	cases := []struct {
		name    string
		seed    int64
		wrap    map[int]func(group.Handler) group.Handler
		dialers map[int]func(addr string) (net.Conn, error)
		remote  bool
	}{
		{
			name: "crash",
			seed: 600,
			wrap: map[int]func(group.Handler) group.Handler{
				2: func(h group.Handler) group.Handler { return killHandler{h: h} },
			},
		},
		{
			name: "remote_lsp",
			seed: 610,
			dialers: map[int]func(addr string) (net.Conn, error){
				1: faultnet.Dialer(faultnet.Faults{FailDial: true}, faultnet.Faults{FailDial: true}),
			},
			remote: true,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			links := r.startMembers(t, c.seed, c.wrap, c.dialers)
			reg := obs.NewRegistry()
			var svc core.Service = core.LocalService{LSP: r.lsp}
			if c.remote {
				srv := transport.NewServer(r.lsp)
				srv.Obs = obs.NewRegistry()
				addr, err := srv.Listen("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { srv.Close() })
				pool := transport.NewPool(addr.String())
				pool.Obs = reg
				pool.Seed = c.seed
				pool.RetryBase = 2 * time.Millisecond
				pool.RetryMax = 20 * time.Millisecond
				pool.DialFunc = faultnet.Dialer(faultnet.Faults{FailDial: true})
				t.Cleanup(func() { pool.Close() })
				svc = pool
			}

			cfg := soakConfig(c.seed + 1)
			cfg.Obs = reg
			s, err := group.NewSession(r.coord, links, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			out, err := s.Run(ctx, svc)
			if err != nil {
				t.Fatal(err)
			}
			r.checkOracle(t, out)

			snap := reg.Snapshot()
			var dropouts, retries int64
			for _, m := range snap.Counters {
				switch m.Name {
				case "group_dropouts_total":
					dropouts += m.Value
				case "transport_retries_total":
					retries += m.Value
				}
			}
			if dropouts != 1 {
				t.Errorf("group_dropouts_total = %d, want 1", dropouts)
			}
			if c.remote && retries < 1 {
				t.Errorf("transport_retries_total = %d, want ≥ 1 (the pool's first dial is refused)", retries)
			}
			if got := snap.Counter("group_repartitions_total"); got != 1 {
				t.Errorf("group_repartitions_total = %d, want 1", got)
			}
			if got := snap.Counter("group_rounds_total", obs.L("kind", "collect")); got != 2 {
				t.Errorf("collect rounds = %d, want 2 (dropout then re-partition)", got)
			}
			if got := snap.Counter("group_rounds_total", obs.L("kind", "decrypt")); got < 1 {
				t.Errorf("decrypt rounds = %d, want ≥ 1", got)
			}
			if got := snap.Counter("ppgnn_phase_total", obs.L("phase", "session"), obs.L("outcome", "ok")); got != 1 {
				t.Errorf("session ok total = %d, want 1", got)
			}
			for _, phase := range []string{"session", "collect", "partition", "query", "decrypt"} {
				h := snap.Histogram("ppgnn_phase_seconds", obs.L("phase", phase), obs.L("outcome", "ok"))
				if h == nil || h.Count < 1 {
					t.Errorf("ppgnn_phase_seconds{phase=%s,outcome=ok} = %+v, want a row", phase, h)
				}
			}
		})
	}
}

// shedAdmitter sheds every session it is asked to admit, with a
// retry-after hint.
type shedAdmitter struct{ retryAfter time.Duration }

func (a shedAdmitter) Admit(string) (*transport.SessionGrant, error) {
	return nil, &transport.BusyError{RetryAfter: a.retryAfter, Reason: "overload"}
}

// TestSessionQueryShedIsBusy: a session whose LSP sheds it with the
// hinted busy reply a real server sends records its query phase as
// "busy", the label the pool gives the same shed.
func TestSessionQueryShedIsBusy(t *testing.T) {
	r := newSoakRig(t)
	links := r.startMembers(t, 700, nil, nil)
	srv := transport.NewServer(r.lsp)
	srv.Admitter = shedAdmitter{retryAfter: 50 * time.Millisecond}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pool := transport.NewPool(addr.String())
	pool.MaxRetries = -1
	defer pool.Close()

	reg := obs.NewRegistry()
	cfg := soakConfig(701)
	cfg.Obs = reg
	s, err := group.NewSession(r.coord, links, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err = s.Run(ctx, pool)
	var re *core.RemoteError
	if !errors.As(err, &re) || !core.IsBusyMessage(re.Msg) {
		t.Fatalf("session err = %v, want a busy shed", err)
	}
	query := obs.L("phase", "query")
	snap := reg.Snapshot()
	if got := snap.Counter("ppgnn_phase_total", query, obs.L("outcome", "busy")); got != 1 {
		t.Errorf("ppgnn_phase_total{phase=query,outcome=busy} = %d, want 1", got)
	}
	if got := snap.Counter("ppgnn_phase_total", query, obs.L("outcome", "remote")); got != 0 {
		t.Errorf("ppgnn_phase_total{phase=query,outcome=remote} = %d, want 0", got)
	}
}
