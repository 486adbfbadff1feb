package obs_test

import (
	"context"
	"errors"
	"testing"

	"ppgnn/internal/core"
	"ppgnn/internal/obs"
)

// TestOutcomeAndCauseMapping pins the labels that spans are ended with:
// the error classifiers live in core, but every value they hand to a
// span must sit inside obs's closed outcome and cause enums.
func TestOutcomeAndCauseMapping(t *testing.T) {
	if got := core.Outcome(nil); got != "ok" {
		t.Fatalf("Outcome(nil) = %q", got)
	}
	if got := core.Outcome(context.DeadlineExceeded); got != "timeout" {
		t.Fatalf("Outcome(deadline) = %q", got)
	}
	if got := core.Outcome(context.Canceled); got != "canceled" {
		t.Fatalf("Outcome(canceled) = %q", got)
	}
	if got := core.Outcome(errors.New("boom")); got != "error" {
		t.Fatalf("Outcome(err) = %q", got)
	}
	if got := core.Cause(context.Canceled); got != "canceled" {
		t.Fatalf("Cause(canceled) = %q", got)
	}
	if got := core.Cause(errors.New("boom")); got != obs.OtherValue {
		t.Fatalf("Cause(opaque) = %q", got)
	}
	// Every mapping output must be inside the respective enum.
	for _, v := range []string{core.Outcome(nil), core.Outcome(context.Canceled), core.Outcome(errors.New("x"))} {
		if !obs.AllowedValues("outcome", v) {
			t.Fatalf("Outcome produced out-of-enum value %q", v)
		}
	}
	for _, v := range []string{core.Cause(nil), core.Cause(context.Canceled), core.Cause(errors.New("x"))} {
		if !obs.AllowedValues("cause", v) {
			t.Fatalf("Cause produced out-of-enum value %q", v)
		}
	}
}
