package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"ppgnn/internal/obs"
)

func TestRetryableClassification(t *testing.T) {
	base := errors.New("connection reset by peer")
	r := Retryable(base)
	if !IsRetryable(r) {
		t.Fatal("Retryable-marked error not classified retryable")
	}
	if !errors.Is(r, base) {
		t.Fatal("Retryable does not unwrap to the cause")
	}
	// The mark survives further wrapping.
	wrapped := fmt.Errorf("attempt 2: %w", r)
	if !IsRetryable(wrapped) {
		t.Fatal("wrapping lost the retryable mark")
	}
	if Retryable(nil) != nil {
		t.Fatal("Retryable(nil) != nil")
	}
}

func TestUnmarkedErrorsAreFatal(t *testing.T) {
	for _, err := range []error{
		io.EOF,
		errors.New("plain"),
		fmt.Errorf("wrapped: %w", io.ErrUnexpectedEOF),
	} {
		if IsRetryable(err) {
			t.Errorf("%v classified retryable without a mark", err)
		}
	}
	if IsRetryable(nil) {
		t.Fatal("nil classified retryable")
	}
}

// TestErrorClassificationTable pins the retryable-vs-fatal verdict for
// every error kind the transport and group-session layers produce.
func TestErrorClassificationTable(t *testing.T) {
	cases := []struct {
		name      string
		err       error
		retryable bool
	}{
		{"nil", nil, false},
		{"marked transient", Retryable(errors.New("dial tcp: refused")), true},
		{"marked transient, wrapped", fmt.Errorf("attempt 3: %w", Retryable(io.EOF)), true},
		{"unmarked network error", io.ErrUnexpectedEOF, false},
		{"server busy", &RemoteError{Msg: BusyMessage}, true},
		{"server draining", &RemoteError{Msg: DrainingMessage}, true},
		{"server rejected query", &RemoteError{Msg: "indicator length 3 != 12"}, false},
		{"quorum lost", &QuorumError{Phase: "contribute", Need: 3, Have: 2, Total: 5}, false},
		{"quorum lost, wrapped", fmt.Errorf("session: %w", &QuorumError{Phase: "decrypt", Need: 3, Have: 1, Total: 5}), false},
		{"bad contribution", &ContributionError{Member: 2, Reason: "set size 7, want 25"}, false},
		{"bad contribution, wrapped", fmt.Errorf("round 1: %w", &ContributionError{Member: 4, Reason: "equivocating resubmission"}), false},
		{"bare quorum sentinel", ErrQuorumLost, false},
		{"bare contribution sentinel", ErrBadContribution, false},
	}
	for _, tc := range cases {
		if got := IsRetryable(tc.err); got != tc.retryable {
			t.Errorf("%s: IsRetryable = %v, want %v", tc.name, got, tc.retryable)
		}
	}
}

// TestGroupSessionErrorIdentity checks the errors.Is / errors.As plumbing
// of the typed session errors.
func TestGroupSessionErrorIdentity(t *testing.T) {
	qe := fmt.Errorf("running session: %w", &QuorumError{Phase: "contribute", Need: 3, Have: 2, Total: 5})
	if !errors.Is(qe, ErrQuorumLost) {
		t.Fatal("QuorumError does not match ErrQuorumLost")
	}
	if errors.Is(qe, ErrBadContribution) {
		t.Fatal("QuorumError matches ErrBadContribution")
	}
	var q *QuorumError
	if !errors.As(qe, &q) || q.Need != 3 || q.Have != 2 || q.Total != 5 || q.Phase != "contribute" {
		t.Fatalf("QuorumError lost its fields: %+v", q)
	}

	ce := fmt.Errorf("collecting: %w", &ContributionError{Member: 4, Reason: "share 2 out of range"})
	if !errors.Is(ce, ErrBadContribution) {
		t.Fatal("ContributionError does not match ErrBadContribution")
	}
	if errors.Is(ce, ErrQuorumLost) {
		t.Fatal("ContributionError matches ErrQuorumLost")
	}
	var c *ContributionError
	if !errors.As(ce, &c) || c.Member != 4 {
		t.Fatalf("ContributionError lost its fields: %+v", c)
	}
	for _, err := range []error{qe, ce} {
		if err.Error() == "" {
			t.Fatal("empty error string")
		}
	}
}

func TestRemoteErrorClassification(t *testing.T) {
	fatal := &RemoteError{Msg: "protocol version 9, this build speaks 1"}
	if IsRetryable(fatal) {
		t.Fatal("query rejection classified retryable")
	}
	for _, msg := range []string{BusyMessage, DrainingMessage} {
		err := fmt.Errorf("session: %w", &RemoteError{Msg: msg})
		if !IsRetryable(err) {
			t.Errorf("%q rejection not classified retryable", msg)
		}
	}
	var re *RemoteError
	if !errors.As(fatal, &re) || re.Msg == "" {
		t.Fatal("RemoteError lost its message")
	}
}

// timeoutErr is a net.Error that reports a timeout without wrapping a
// deadline sentinel.
type timeoutErr struct{}

func (timeoutErr) Error() string   { return "i/o timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

// joinChain mimics the Pool's terminal error shape: every attempt's
// error joined, the join wrapped in the "session failed after N
// attempt(s)" envelope. The taxonomy must classify through it.
func joinChain(attempts ...error) error {
	return fmt.Errorf("transport: session failed after %d attempt(s): %w",
		len(attempts), errors.Join(attempts...))
}

// TestOutcomeAndCause pins both labels for every error shape the
// transport, group sessions and the load driver produce — bare errors,
// typed rejections, and the errors.Join retry chains a Pool hands back
// after spending its budget. Each expected label must itself sit in its
// closed enum, so a taxonomy change cannot silently mint an
// unclassifiable value.
func TestOutcomeAndCause(t *testing.T) {
	hinted := &RemoteError{Msg: BusyReply(120 * time.Millisecond)}
	busy := &RemoteError{Msg: BusyMessage}
	draining := &RemoteError{Msg: DrainingMessage}
	dial := &net.OpError{Op: "dial", Net: "tcp", Err: errors.New("connection refused")}
	read := &net.OpError{Op: "read", Net: "tcp", Err: errors.New("connection reset by peer")}
	quorum := &QuorumError{Phase: "contribute", Need: 3, Have: 2, Total: 5}

	cases := []struct {
		name           string
		err            error
		outcome, cause string
	}{
		{"nil", nil, "ok", obs.OtherValue},
		{"busy", busy, "busy", "busy"},
		{"hinted busy", hinted, "busy", "busy"},
		{"hinted busy, 1s", &RemoteError{Msg: BusyReply(time.Second)}, "busy", "busy"},
		{"draining", draining, "drain", "draining"},
		{"remote", &RemoteError{Msg: "query rejected: too many locations"}, "remote", "remote"},
		{"remote, no tenant", &RemoteError{Msg: "no such tenant"}, "remote", "remote"},
		{"wrapped busy", fmt.Errorf("attempt 2: %w", busy), "busy", "busy"},
		{"joined draining", errors.Join(errors.New("x"), draining), "drain", "draining"},
		{"timeout", context.DeadlineExceeded, "timeout", "timeout"},
		{"wrapped timeout", fmt.Errorf("t: %w", context.DeadlineExceeded), "timeout", "timeout"},
		{"canceled", context.Canceled, "canceled", "canceled"},
		{"opaque", errors.New("boom"), "error", obs.OtherValue},
		{"quorum", quorum, "quorum_lost", "quorum_lost"},
		{"wrapped quorum", fmt.Errorf("group: %w", quorum), "quorum_lost", "quorum_lost"},
		{"bad contribution", &ContributionError{Member: 2, Reason: "set size 7, want 25"}, "bad_contribution", "bad_contribution"},
		// The retry chains: a typed cause buried under transient attempts
		// and the envelope wins; only an all-transient chain is exhausted.
		{"join ends busy", joinChain(Retryable(errors.New("dial tcp: refused")), hinted), "busy", "busy"},
		{"join ends drain", joinChain(hinted, draining), "busy", "busy"}, // errors.As finds the first
		{"busy behind retries", errors.Join(Retryable(errors.New("reset")), busy), "busy", "busy"},
		{"hinted busy behind spent retries", joinChain(Retryable(dial), Retryable(read), hinted), "busy", "busy"},
		{"join all opaque", joinChain(errors.New("a"), errors.New("b")), "error", obs.OtherValue},
		{"join with timeout", joinChain(errors.New("a"), fmt.Errorf("attempt: %w", context.DeadlineExceeded)), "timeout", "timeout"},
		{"deadline mid-backoff", joinChain(Retryable(dial), Retryable(context.DeadlineExceeded)), "timeout", "timeout"},
		{"retry exhausted", fmt.Errorf("after 4 attempts: %w",
			errors.Join(Retryable(errors.New("dial refused")), Retryable(errors.New("reset")))), "exhausted", obs.OtherValue},
		{"network failures exhausted", joinChain(Retryable(dial), Retryable(read)), "exhausted", "dial"},
		// The stdlib network taxonomy under the typed one.
		{"io deadline", fmt.Errorf("read: %w", os.ErrDeadlineExceeded), "timeout", "timeout"},
		{"net timeout", &net.OpError{Op: "read", Net: "tcp", Err: timeoutErr{}}, "error", "timeout"},
		{"eof", io.EOF, "error", "eof"},
		{"unexpected eof", fmt.Errorf("frame: %w", io.ErrUnexpectedEOF), "error", "eof"},
		{"closed conn", net.ErrClosed, "error", "reset"},
		{"closed pipe", io.ErrClosedPipe, "error", "reset"},
		{"dial", dial, "error", "dial"},
		{"read reset", read, "error", "reset"},
	}
	for _, c := range cases {
		if got := Outcome(c.err); got != c.outcome {
			t.Errorf("%s: Outcome = %q, want %q", c.name, got, c.outcome)
		}
		if got := Cause(c.err); got != c.cause {
			t.Errorf("%s: Cause = %q, want %q", c.name, got, c.cause)
		}
		if !obs.AllowedValues("outcome", c.outcome) || !obs.AllowedValues("cause", c.cause) {
			t.Errorf("%s: expected labels %q/%q are not in the closed enums", c.name, c.outcome, c.cause)
		}
	}
}
