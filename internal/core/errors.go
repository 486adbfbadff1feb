package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"ppgnn/internal/obs"
)

// Transport error classification. A PPGNN query session is idempotent on
// the LSP side — the server holds no per-session state once a session
// aborts, and answering the same (query, locations) pair twice leaks
// nothing the first answer did not (the LSP already sees the full
// d-anonymous view; see DESIGN.md "Transport reliability"). Resending a
// session from scratch is therefore always safe, and the only question a
// client must answer after a failure is whether a retry can possibly
// succeed:
//
//   - retryable: the network ate the session (dial failure, connection
//     reset, timeout before the answer arrived) or the server shed load.
//     A fresh connection and a resend may well succeed.
//   - protocol-fatal: the server examined the query and rejected it
//     (malformed frame, bad parameters, incompatible version). The same
//     bytes will be rejected again; retrying only burns ciphertexts.

// RemoteError is a server-side rejection carried in a FrameError frame.
// It is protocol-fatal except for the well-known load-shedding and drain
// messages, which signal a transient server condition rather than a
// defect in the query.
type RemoteError struct {
	Msg string
}

func (e *RemoteError) Error() string { return "core: server rejected query: " + e.Msg }

// FrameError payloads with transport-level meaning. Servers send these
// verbatim (optionally suffixed with a retry-after hint, see BusyReply);
// clients match them by prefix to classify the rejection as transient.
const (
	// BusyMessage sheds load when the server is at its connection limit
	// or its admission gate rejects the session.
	BusyMessage = "server at capacity"
	// DrainingMessage rejects new sessions while the server drains.
	DrainingMessage = "server draining"
)

// retryAfterSep separates a shed message from its optional retry-after
// hint: "server at capacity; retry-after=120ms". Old clients that compare
// whole strings simply see an unknown (hence non-retryable) message, so
// the hint is only attached by servers that know their clients prefix-
// match — which every Pool in this module does.
const retryAfterSep = "; retry-after="

// BusyReply renders the load-shedding FrameError payload, carrying the
// server's suggested retry-after as a wire hint when positive.
func BusyReply(retryAfter time.Duration) string {
	if retryAfter <= 0 {
		return BusyMessage
	}
	return BusyMessage + retryAfterSep + retryAfter.String()
}

// IsBusyMessage reports whether a FrameError payload is a load shed,
// with or without a retry-after suffix.
func IsBusyMessage(msg string) bool {
	return msg == BusyMessage || strings.HasPrefix(msg, BusyMessage+retryAfterSep)
}

// IsDrainingMessage reports whether a FrameError payload is a drain
// rejection.
func IsDrainingMessage(msg string) bool {
	return msg == DrainingMessage || strings.HasPrefix(msg, DrainingMessage+retryAfterSep)
}

// RetryAfter returns the server-suggested backoff carried in the
// rejection, if any. Malformed hints are ignored — the message stays a
// valid transient rejection either way.
func (e *RemoteError) RetryAfter() (time.Duration, bool) {
	i := strings.Index(e.Msg, retryAfterSep)
	if i < 0 {
		return 0, false
	}
	d, err := time.ParseDuration(e.Msg[i+len(retryAfterSep):])
	if err != nil || d <= 0 {
		return 0, false
	}
	return d, true
}

// RetryAfterHint extracts the server-suggested backoff from anywhere in
// err's chain (a *RemoteError behind retry-loop wrapping included).
func RetryAfterHint(err error) (time.Duration, bool) {
	var re *RemoteError
	if errors.As(err, &re) {
		return re.RetryAfter()
	}
	return 0, false
}

// transient reports whether the rejection is a server condition a retry
// (possibly against another replica) can outlast.
func (e *RemoteError) transient() bool {
	return IsBusyMessage(e.Msg) || IsDrainingMessage(e.Msg)
}

// Group-session error taxonomy (internal/group). The quorum session
// manager runs the intra-group phases of Algorithm 1 against n
// independent member endpoints; its failures divide the same way the
// transport's do:
//
//   - per-member transient: a member's link ate one exchange (timeout,
//     reset, dial failure). The session retries that member with backoff;
//     the error never escapes the session.
//   - ErrBadContribution: a member sent something provably wrong (set
//     size mismatch, out-of-space point, out-of-range decryption share,
//     equivocating resubmission). Fatal for that member — it is ejected
//     and never retried (the same member would just lie again) — but not
//     for the session, which continues if a quorum survives.
//   - ErrQuorumLost: fewer than t members remain reachable and honest.
//     Fatal for the session and NOT retryable: an immediate resend would
//     face the same dead members. Callers decide whether to re-run later
//     with a recovered roster.

// ErrQuorumLost reports that a group session lost so many members that no
// t-quorum can complete it. Match with errors.Is.
var ErrQuorumLost = errors.New("core: quorum lost")

// ErrBadContribution reports a malformed, duplicate, or equivocating
// member contribution. Match with errors.Is.
var ErrBadContribution = errors.New("core: bad member contribution")

// QuorumError carries the roster arithmetic behind an ErrQuorumLost.
type QuorumError struct {
	Phase string // session phase that lost the quorum ("contribute", "decrypt")
	Need  int    // quorum t
	Have  int    // members still reachable and honest
	Total int    // original group size n
}

func (e *QuorumError) Error() string {
	return fmt.Sprintf("core: quorum lost during %s: %d of %d members alive, need %d",
		e.Phase, e.Have, e.Total, e.Need)
}

// Is makes errors.Is(err, ErrQuorumLost) match.
func (e *QuorumError) Is(target error) bool { return target == ErrQuorumLost }

// ContributionError identifies the member behind an ErrBadContribution
// and why it was ejected.
type ContributionError struct {
	Member int // member index (0 = coordinator)
	Reason string
}

func (e *ContributionError) Error() string {
	return fmt.Sprintf("core: bad contribution from member %d: %s", e.Member, e.Reason)
}

// Is makes errors.Is(err, ErrBadContribution) match.
func (e *ContributionError) Is(target error) bool { return target == ErrBadContribution }

// retryableError marks a network-level failure that occurred before any
// answer byte arrived, so a resend-from-scratch is safe.
type retryableError struct {
	err error
}

func (e *retryableError) Error() string { return e.err.Error() }
func (e *retryableError) Unwrap() error { return e.err }

// Retryable marks err as safe to retry with a fresh connection. It
// returns nil for a nil err.
func Retryable(err error) error {
	if err == nil {
		return nil
	}
	return &retryableError{err: err}
}

// IsRetryable reports whether err (anywhere in its chain) is a transient
// failure a fault-tolerant client should resend the session for.
func IsRetryable(err error) bool {
	var r *retryableError
	if errors.As(err, &r) {
		return true
	}
	var re *RemoteError
	if errors.As(err, &re) {
		return re.transient()
	}
	return false
}

// Outcome maps a session's error to the closed "outcome" label enum. It
// is the one classifier behind every session-level outcome label (the
// pool's sessions and trace root, a group session's phase spans, the
// load driver). The typed taxonomies come first and are found anywhere
// in an errors.Join retry chain, so a shed behind spent retries still
// reads busy: quorum_lost, bad_contribution, then a *RemoteError as
// busy, drain or remote; then the stdlib timeout and canceled; then
// exhausted when every attempt failed transiently and the retry budget,
// not the protocol, ended the session; else error.
func Outcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrQuorumLost):
		return "quorum_lost"
	case errors.Is(err, ErrBadContribution):
		return "bad_contribution"
	}
	var re *RemoteError
	if errors.As(err, &re) {
		switch {
		case IsBusyMessage(re.Msg):
			return "busy"
		case IsDrainingMessage(re.Msg):
			return "drain"
		}
		return "remote"
	}
	out := obs.Outcome(err)
	if out == "error" && IsRetryable(err) {
		return "exhausted"
	}
	return out
}

// Cause maps the error behind one retry or member removal to the closed
// "cause" label enum: bad_contribution, quorum_lost, a *RemoteError as
// busy, draining or remote, else obs.Cause's network taxonomy.
func Cause(err error) string {
	switch {
	case errors.Is(err, ErrBadContribution):
		return "bad_contribution"
	case errors.Is(err, ErrQuorumLost):
		return "quorum_lost"
	}
	var re *RemoteError
	if errors.As(err, &re) {
		switch {
		case IsBusyMessage(re.Msg):
			return "busy"
		case IsDrainingMessage(re.Msg):
			return "draining"
		}
		return "remote"
	}
	return obs.Cause(err)
}

// RetryDelay is the one backoff schedule of both retry loops
// (transport.Pool's sessions, group.Session's member exchanges): base
// doubling per retry up to max, then full jitter in [½d, d], which
// desynchronizes clients that failed together (a cell handover drops a
// whole neighborhood at once) while staying deterministic under a seeded
// rng. attempt counts from 1; the caller serializes access to rng.
func RetryDelay(rng *rand.Rand, base, max time.Duration, attempt int) time.Duration {
	d := base << (attempt - 1)
	if d > max || d <= 0 {
		d = max
	}
	return d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
}

// SleepRetry waits d before a retry, or returns the context's error,
// marked retryable, when ctx ends first.
func SleepRetry(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return Retryable(ctx.Err())
	case <-t.C:
		return nil
	}
}
