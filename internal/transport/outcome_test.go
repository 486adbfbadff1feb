package transport

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"ppgnn/internal/core"
	"ppgnn/internal/obs"
)

// joinChain mimics the Pool's terminal error shape: every attempt's
// error joined, the join wrapped in the "session failed after N
// attempt(s)" envelope. The taxonomy must classify through it.
func joinChain(attempts ...error) error {
	return fmt.Errorf("transport: session failed after %d attempt(s): %w",
		len(attempts), errors.Join(attempts...))
}

// TestSessionOutcomeTaxonomy pins the outcome label core.Outcome gives
// every shape the transport produces — bare errors, typed rejections,
// and the errors.Join retry chains the Pool hands back after exhausting
// its budget. Each expected label must itself sit in the closed enum, so
// a taxonomy change cannot silently mint an unclassifiable outcome.
func TestSessionOutcomeTaxonomy(t *testing.T) {
	busy := &core.RemoteError{Msg: core.BusyReply(120 * time.Millisecond)}
	draining := &core.RemoteError{Msg: core.DrainingMessage}
	remote := &core.RemoteError{Msg: "query rejected: too many locations"}

	cases := []struct {
		name string
		err  error
		want string
	}{
		{"nil", nil, "ok"},
		{"busy", busy, "busy"},
		{"busy no hint", &core.RemoteError{Msg: core.BusyMessage}, "busy"},
		{"draining", draining, "drain"},
		{"remote", remote, "remote"},
		{"timeout", context.DeadlineExceeded, "timeout"},
		{"canceled", context.Canceled, "canceled"},
		{"opaque", errors.New("boom"), "error"},
		// The joined retry chains: the typed cause buried under dial
		// failures and the envelope must still win the classification.
		{"join ends busy", joinChain(core.Retryable(errors.New("dial tcp: refused")), busy), "busy"},
		{"join ends drain", joinChain(busy, draining), "busy"}, // errors.As finds the first
		{"join all opaque", joinChain(errors.New("a"), errors.New("b")), "error"},
		{"join with timeout", joinChain(errors.New("a"), fmt.Errorf("attempt: %w", context.DeadlineExceeded)), "timeout"},
	}
	for _, c := range cases {
		if got := core.Outcome(c.err); got != c.want {
			t.Errorf("%s: core.Outcome = %q, want %q", c.name, got, c.want)
		} else if !obs.AllowedValues("outcome", c.want) {
			t.Errorf("%s: expected outcome %q is not in the closed enum", c.name, c.want)
		}
	}
}

// TestCauseLabelTaxonomy does the same for the per-attempt cause labels
// core.Cause gives, which feed transport_retries_total and the trace
// "cause" attribute.
func TestCauseLabelTaxonomy(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want string
	}{
		{"busy", &core.RemoteError{Msg: core.BusyReply(time.Second)}, "busy"},
		{"draining", &core.RemoteError{Msg: core.DrainingMessage}, "draining"},
		{"remote", &core.RemoteError{Msg: "no such tenant"}, "remote"},
		{"timeout", context.DeadlineExceeded, "timeout"},
		{"wrapped remote", fmt.Errorf("attempt 2: %w", &core.RemoteError{Msg: core.BusyMessage}), "busy"},
		{"joined remote", errors.Join(errors.New("x"), &core.RemoteError{Msg: core.DrainingMessage}), "draining"},
		{"opaque", errors.New("boom"), obs.OtherValue},
	}
	for _, c := range cases {
		if got := core.Cause(c.err); got != c.want {
			t.Errorf("%s: core.Cause = %q, want %q", c.name, got, c.want)
		} else if !obs.AllowedValues("cause", c.want) {
			t.Errorf("%s: expected cause %q is not in the closed enum", c.name, c.want)
		}
	}
}

// TestRetryAfterHintThroughJoinChains pins that the server's suggested
// backoff survives the Pool's error-envelope layering — the hint is what
// the shed trace's retry_after bucket and the client's backoff floor are
// built from.
func TestRetryAfterHintThroughJoinChains(t *testing.T) {
	busy := &core.RemoteError{Msg: core.BusyReply(250 * time.Millisecond)}
	for name, err := range map[string]error{
		"bare":    busy,
		"wrapped": fmt.Errorf("attempt: %w", busy),
		"joined":  joinChain(core.Retryable(errors.New("dial refused")), busy),
	} {
		d, ok := core.RetryAfterHint(err)
		if !ok || d != 250*time.Millisecond {
			t.Errorf("%s: RetryAfterHint = %v, %v", name, d, ok)
		}
	}
	if _, ok := core.RetryAfterHint(errors.New("no hint")); ok {
		t.Error("hint invented from a plain error")
	}
	// The hint buckets into the closed retry_after enum for traces.
	if got := obs.DurationBucketLabel(250 * time.Millisecond); got != "le_250ms" {
		t.Errorf("hint bucket = %q", got)
	}
}

// TestBusyErrorSurface pins the server-side typed rejection: reason and
// slot ride the admission decision into metrics and traces, and the
// wire message it produces classifies back to "busy" on the client.
func TestBusyErrorSurface(t *testing.T) {
	be := &BusyError{RetryAfter: 80 * time.Millisecond, Reason: "quota", Slot: "t3"}
	if be.Error() == "" || !errors.As(error(be), new(*BusyError)) {
		t.Fatal("BusyError must be a matchable error")
	}
	if !obs.AllowedValues("admission", be.Reason) {
		t.Errorf("reason %q outside the admission enum", be.Reason)
	}
	if !obs.AllowedTraceAttr("tenant", be.Slot) {
		t.Errorf("slot %q outside the tenant trace attr enum", be.Slot)
	}
	// Round trip through the wire message the server actually sends.
	msg := core.BusyReply(be.RetryAfter)
	re := &core.RemoteError{Msg: msg}
	if got := core.Outcome(re); got != "busy" {
		t.Errorf("wire round trip classified %q", got)
	}
	if d, ok := re.RetryAfter(); !ok || d != be.RetryAfter {
		t.Errorf("wire round trip hint = %v, %v", d, ok)
	}
}
