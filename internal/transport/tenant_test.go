package transport

import (
	"errors"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"ppgnn/internal/core"
	"ppgnn/internal/dataset"
	"ppgnn/internal/geo"
	"ppgnn/internal/wire"
)

// recordingAdmitter is a fake SessionAdmitter for transport-level tests:
// it records every tenant id it is asked about and serves a scripted
// response per tenant.
type recordingAdmitter struct {
	mu       sync.Mutex
	admitted []string
	released int
	grants   map[string]*SessionGrant
	errs     map[string]error
}

func (a *recordingAdmitter) Admit(tenantID string) (*SessionGrant, error) {
	a.mu.Lock()
	a.admitted = append(a.admitted, tenantID)
	a.mu.Unlock()
	if err, ok := a.errs[tenantID]; ok {
		return nil, err
	}
	if g, ok := a.grants[tenantID]; ok {
		// Wrap the release so the test can count calls.
		inner := g.Release
		return &SessionGrant{LSP: g.LSP, MaxLocations: g.MaxLocations, Release: func() {
			a.mu.Lock()
			a.released++
			a.mu.Unlock()
			if inner != nil {
				inner()
			}
		}}, nil
	}
	return nil, errors.New("unknown tenant")
}

func (a *recordingAdmitter) snapshot() ([]string, int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]string(nil), a.admitted...), a.released
}

// TestTenantRoutingWithAdmitter: a FrameTenant session is routed through
// the admitter, served with the grant's LSP, and releases its grant
// exactly once; a tenantless session on the same server lands on the
// default tenant.
func TestTenantRoutingWithAdmitter(t *testing.T) {
	alphaLSP := core.NewLSP(dataset.Synthetic(5, 500), geo.UnitRect)
	adm := &recordingAdmitter{grants: map[string]*SessionGrant{
		"alpha":       {LSP: alphaLSP},
		DefaultTenant: {},
	}}
	_, addr := startServerWith(t, 500, func(s *Server) { s.Admitter = adm })

	g, err := core.NewGroup(testParams(2, core.VariantPPGNN),
		[]geo.Point{{X: 0.3, Y: 0.4}, {X: 0.5, Y: 0.6}}, rand.New(rand.NewSource(30)))
	if err != nil {
		t.Fatal(err)
	}
	cli := dialOne(t, addr)
	cli.Tenant = "alpha"
	res, err := g.Run(cli, nil)
	if err != nil {
		t.Fatalf("tenant-routed query: %v", err)
	}
	if len(res.Points) == 0 {
		t.Fatal("tenant-routed query returned an empty answer")
	}
	// The same client, switched to the default tenant, skips the tenant
	// frame — the admitter must still see it as DefaultTenant.
	cli.Tenant = ""
	if _, err := g.Run(cli, nil); err != nil {
		t.Fatalf("default-tenant query: %v", err)
	}

	admitted, released := adm.snapshot()
	if len(admitted) != 2 || admitted[0] != "alpha" || admitted[1] != DefaultTenant {
		t.Fatalf("admitted = %v, want [alpha %s]", admitted, DefaultTenant)
	}
	if released != 2 {
		t.Fatalf("grants released %d times, want 2", released)
	}
}

// TestAdmitterBusyShedCarriesHint: a *BusyError from the admitter sheds
// the session with a retryable busy reply whose retry-after hint survives
// the wire round trip.
func TestAdmitterBusyShedCarriesHint(t *testing.T) {
	adm := &recordingAdmitter{errs: map[string]error{
		DefaultTenant: &BusyError{RetryAfter: 150 * time.Millisecond, Reason: "quota"},
	}}
	_, addr := startServerWith(t, 300, func(s *Server) { s.Admitter = adm })

	g, err := core.NewGroup(testParams(2, core.VariantPPGNN),
		[]geo.Point{{X: 0.2, Y: 0.7}, {X: 0.3, Y: 0.8}}, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	q, locs, err := g.BuildQuery(nil)
	if err != nil {
		t.Fatal(err)
	}
	cli := dialOne(t, addr)
	_, err = cli.Process(q, locs)
	var re *core.RemoteError
	if !errors.As(err, &re) || !core.IsBusyMessage(re.Msg) {
		t.Fatalf("err = %v, want busy RemoteError", err)
	}
	if !core.IsRetryable(err) {
		t.Fatal("admission shed must be retryable")
	}
	if hint, ok := core.RetryAfterHint(err); !ok || hint != 150*time.Millisecond {
		t.Fatalf("retry-after hint = %v (%v), want 150ms", hint, ok)
	}
}

// TestAdmitterRejectionIsProtocolFatal: a non-busy admitter error reaches
// the client as a plain FrameError that is not retryable.
func TestAdmitterRejectionIsProtocolFatal(t *testing.T) {
	adm := &recordingAdmitter{errs: map[string]error{
		"ghost": errors.New("unknown tenant \"ghost\""),
	}}
	_, addr := startServerWith(t, 300, func(s *Server) { s.Admitter = adm })

	g, err := core.NewGroup(testParams(2, core.VariantPPGNN),
		[]geo.Point{{X: 0.4, Y: 0.4}, {X: 0.6, Y: 0.6}}, rand.New(rand.NewSource(32)))
	if err != nil {
		t.Fatal(err)
	}
	q, locs, err := g.BuildQuery(nil)
	if err != nil {
		t.Fatal(err)
	}
	cli := dialOne(t, addr)
	cli.Tenant = "ghost"
	_, err = cli.Process(q, locs)
	var re *core.RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "unknown tenant") {
		t.Fatalf("err = %v, want unknown-tenant RemoteError", err)
	}
	if core.IsRetryable(err) {
		t.Fatal("tenant rejection must not be retryable")
	}
}

// TestUnknownTenantWithoutAdmitter: a single-tenant server (no Admitter)
// rejects any non-default tenant frame protocol-fatally, preserving the
// pre-multi-tenant behavior for everyone else.
func TestUnknownTenantWithoutAdmitter(t *testing.T) {
	_, addr := startServer(t, 300)
	g, err := core.NewGroup(testParams(2, core.VariantPPGNN),
		[]geo.Point{{X: 0.1, Y: 0.9}, {X: 0.2, Y: 0.8}}, rand.New(rand.NewSource(33)))
	if err != nil {
		t.Fatal(err)
	}
	q, locs, err := g.BuildQuery(nil)
	if err != nil {
		t.Fatal(err)
	}
	cli := dialOne(t, addr)
	cli.Tenant = "beta"
	_, err = cli.Process(q, locs)
	var re *core.RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "unknown tenant") {
		t.Fatalf("err = %v, want unknown-tenant RemoteError", err)
	}
	if core.IsRetryable(err) {
		t.Fatal("unknown tenant must be protocol-fatal")
	}
}

// TestTenantFrameValidation: an oversized tenant id is rejected before the
// session does any work.
func TestTenantFrameValidation(t *testing.T) {
	_, addr := startServer(t, 300)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	huge := strings.Repeat("x", core.MaxTenantIDLen+1)
	if err := wire.WriteFrame(conn, core.FrameTenant, []byte(huge)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, payload, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatalf("no reply to an oversized tenant frame: %v", err)
	}
	if typ != core.FrameError || !strings.Contains(string(payload), "tenant frame") {
		t.Fatalf("reply = type %d %q, want tenant-frame FrameError", typ, payload)
	}
}
