package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestMetricsEndpoint is the endpoint smoke test: serve a registry on a
// real socket, GET /metrics, decode the JSON, and check the numbers and
// the pprof index both answer.
func TestMetricsEndpoint(t *testing.T) {
	r := NewRegistry()
	r.Counter("transport_retries_total", L("cause", "dial")).Add(2)
	sp := r.StartSpan("query", nil)
	sp.End("ok")

	addr, shutdown, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decoding snapshot: %v", err)
	}
	if got := snap.Counter("transport_retries_total", L("cause", "dial")); got != 2 {
		t.Fatalf("served counter = %d, want 2", got)
	}
	if h := snap.Histogram(phaseSecondsName, L("phase", "query"), L("outcome", "ok")); h == nil || h.Count != 1 {
		t.Fatalf("served phase histogram = %+v", h)
	}

	// Write methods are rejected.
	post, err := http.Post(fmt.Sprintf("http://%s/metrics", addr), "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics = %d, want 405", post.StatusCode)
	}

	// pprof rides along on the same mux.
	pp, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/", addr))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(pp.Body)
	pp.Body.Close()
	if pp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index: status %d body %.80q", pp.StatusCode, body)
	}
}
