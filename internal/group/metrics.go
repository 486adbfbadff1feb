package group

import (
	"time"

	"ppgnn/internal/core"
	"ppgnn/internal/obs"
)

// Telemetry for group sessions. Every label value below comes from a
// closed enum in internal/obs — roster ids, session ids, and error
// strings never become labels (DESIGN.md §9).

// countRound records one finished contribution or decryption round.
func (s *Session) countRound(kind string, start time.Time) {
	s.reg.Counter("group_rounds_total", obs.L("kind", kind)).Inc()
	s.reg.Histogram("group_round_seconds", obs.TimeBuckets, obs.L("kind", kind)).
		Observe(time.Since(start).Seconds())
}

// quorumLost counts a quorum failure and builds its typed error. phase is
// the QuorumError phase ("contribute" or "decrypt"); the metric label
// uses the FSM phase names from the closed enum.
func (s *Session) quorumLost(phase string, need, have int) error {
	label := "decrypt"
	if phase == "contribute" {
		label = "collect"
	}
	s.reg.Counter("group_quorum_lost_total", obs.L("phase", label)).Inc()
	return &core.QuorumError{Phase: phase, Need: need, Have: have, Total: s.n}
}
