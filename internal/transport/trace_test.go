package transport

import (
	"math/rand"
	"testing"
	"time"

	"ppgnn/internal/core"
	"ppgnn/internal/geo"
	"ppgnn/internal/obs"
)

// TestTracePropagationClientToServer runs one pooled query over real TCP
// and proves the wire contract of FrameTrace: the client-originated
// trace id reappears verbatim in the server's flight recorder, marked
// remote, with the admission and LSP attributes attached server-side.
func TestTracePropagationClientToServer(t *testing.T) {
	sreg := obs.NewRegistry()
	_, addr := startServerWith(t, 500, func(s *Server) { s.Obs = sreg })

	creg := obs.NewRegistry()
	pool := NewPool(addr)
	pool.Obs = creg
	defer pool.Close()

	g, err := core.NewGroup(testParams(2, core.VariantPPGNN),
		[]geo.Point{{X: 0.3, Y: 0.4}, {X: 0.5, Y: 0.6}}, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(pool, nil); err != nil {
		t.Fatal(err)
	}

	client := creg.Recorder().Snapshot()
	// The server completes the trace when its session goroutine unwinds,
	// which can lag the client reading the answer.
	var server []*obs.TraceSnap
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if server = sreg.Recorder().Snapshot(); len(server) > 0 {
			break
		}
	}
	if len(client) != 1 || len(server) != 1 {
		t.Fatalf("client retained %d traces, server %d; want 1 and 1", len(client), len(server))
	}
	if client[0].TraceID != server[0].TraceID {
		t.Fatalf("trace id diverged across the wire: client %s, server %s",
			client[0].TraceID, server[0].TraceID)
	}
	if client[0].Remote || !server[0].Remote {
		t.Fatalf("remote flags: client %v, server %v", client[0].Remote, server[0].Remote)
	}
	if client[0].Root.Phase != "query" || client[0].Root.Outcome != "ok" {
		t.Fatalf("client root = %s/%s", client[0].Root.Phase, client[0].Root.Outcome)
	}
	root := server[0].Root
	if root.Phase != "session" || root.Outcome != "ok" {
		t.Fatalf("server root = %s/%s", root.Phase, root.Outcome)
	}
	if root.Attrs["admission"] != "ok" || root.Attrs["tenant"] != "default" {
		t.Fatalf("server root attrs = %v", root.Attrs)
	}
	if len(root.Children) != 1 || root.Children[0].Phase != "lsp" {
		t.Fatalf("server children = %+v, want one lsp span", root.Children)
	}
	lsp := root.Children[0]
	if !obs.AllowedTraceAttr("workers", lsp.Attrs["workers"]) ||
		!obs.AllowedTraceAttr("candidates", lsp.Attrs["candidates"]) {
		t.Fatalf("lsp attrs = %v, want bucketed workers and candidates", lsp.Attrs)
	}
}

// TestShedSessionIsTraced pins the admission-control side of the
// tentpole: a quota rejection still produces a server-side trace that
// records the shed's reason, the tenant's metric slot, and the
// retry-after hint — as closed buckets, never raw values.
func TestShedSessionIsTraced(t *testing.T) {
	sreg := obs.NewRegistry()
	adm := &recordingAdmitter{errs: map[string]error{
		"alpha": &BusyError{RetryAfter: 80 * time.Millisecond, Reason: "quota", Slot: "t1"},
	}}
	_, addr := startServerWith(t, 400, func(s *Server) {
		s.Obs = sreg
		s.Admitter = adm
	})

	creg := obs.NewRegistry()
	pool := NewPool(addr)
	pool.Obs = creg
	pool.Tenant = "alpha"
	pool.MaxRetries = -1 // every shed must surface, not be retried away
	defer pool.Close()

	g, err := core.NewGroup(testParams(2, core.VariantPPGNN),
		[]geo.Point{{X: 0.3, Y: 0.4}, {X: 0.5, Y: 0.6}}, rand.New(rand.NewSource(32)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(pool, nil); err == nil {
		t.Fatal("quota shed did not fail the query")
	}

	// The server completes the trace when its session goroutine unwinds,
	// which can lag the client's error return while the server drains the
	// discarded connection.
	var server []*obs.TraceSnap
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if server = sreg.Recorder().Snapshot(); len(server) > 0 {
			break
		}
	}
	if len(server) != 1 {
		t.Fatalf("server retained %d traces, want the shed", len(server))
	}
	root := server[0].Root
	if !server[0].Remote || root.Outcome != "busy" {
		t.Fatalf("shed trace = remote=%v outcome=%s", server[0].Remote, root.Outcome)
	}
	want := map[string]string{"admission": "quota", "tenant": "t1", "retry_after": "le_100ms"}
	for k, v := range want {
		if root.Attrs[k] != v {
			t.Fatalf("shed attr %s = %q, want %q (all: %v)", k, root.Attrs[k], v, root.Attrs)
		}
	}
	// The client side recorded the same trace, failed.
	client := creg.Recorder().Snapshot()
	if len(client) != 1 || client[0].TraceID != server[0].TraceID {
		t.Fatalf("client shed trace = %+v", client)
	}
	if client[0].Root.Outcome != "busy" {
		t.Fatalf("client shed outcome = %s", client[0].Root.Outcome)
	}
}

// TestRetriedSessionTraceCarriesCause: a server that sheds once and then
// admits leaves a client trace with one retry and a "busy" cause attr.
func TestRetriedSessionTraceCarriesCause(t *testing.T) {
	sheds := 0
	adm := &recordingAdmitter{grants: map[string]*SessionGrant{DefaultTenant: {}}}
	sreg := obs.NewRegistry()
	_, addr := startServerWith(t, 400, func(s *Server) {
		s.Obs = sreg
		base := adm
		s.Admitter = admitFunc(func(tenant string) (*SessionGrant, error) {
			if sheds == 0 {
				sheds++
				return nil, &BusyError{RetryAfter: time.Millisecond, Reason: "overload"}
			}
			return base.Admit(tenant)
		})
	})

	creg := obs.NewRegistry()
	pool := NewPool(addr)
	pool.Obs = creg
	pool.RetryBase = time.Millisecond
	defer pool.Close()

	g, err := core.NewGroup(testParams(2, core.VariantPPGNN),
		[]geo.Point{{X: 0.3, Y: 0.4}, {X: 0.5, Y: 0.6}}, rand.New(rand.NewSource(33)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(pool, nil); err != nil {
		t.Fatal(err)
	}
	client := creg.Recorder().Snapshot()
	if len(client) != 1 {
		t.Fatalf("client retained %d traces", len(client))
	}
	root := client[0].Root
	if root.Outcome != "ok" || root.Retries != 1 || root.Attrs["cause"] != "busy" {
		t.Fatalf("retried trace root = outcome=%s retries=%d attrs=%v", root.Outcome, root.Retries, root.Attrs)
	}
}

// admitFunc adapts a function to SessionAdmitter for tests.
type admitFunc func(tenantID string) (*SessionGrant, error)

func (f admitFunc) Admit(tenantID string) (*SessionGrant, error) { return f(tenantID) }
