package load

import (
	"math/rand"
	"time"
)

// schedule produces the deterministic inter-arrival gaps of one run:
// Poisson arrivals, memoryless traffic and the standard model for many
// independent users. The arrivals are open-loop: they fire on the
// process's own clock, independent of how fast the system answers — the
// generator never waits for a response before firing the next query, so
// queueing delay under overload shows up in the measured latency instead
// of silently throttling the offered rate (the coordinated-omission trap
// of closed-loop benchmarks). The same (rate, seed) pair always yields
// the same sequence, so a faulted run can be replayed exactly.
type schedule struct {
	rate float64 // arrivals per second
	rng  *rand.Rand
}

func newSchedule(rate float64, seed int64) *schedule {
	return &schedule{rate: rate, rng: rand.New(rand.NewSource(seed))}
}

// next returns the exponentially distributed gap before the following
// arrival.
func (s *schedule) next() time.Duration {
	return time.Duration(s.rng.ExpFloat64() / s.rate * float64(time.Second))
}
