package load

import (
	"fmt"
	"math/rand"
	"time"
)

// Arrival selects the open-loop arrival process of a load run. Open-loop
// means arrivals fire on the process's own clock, independent of how fast
// the system answers — the generator never waits for a response before
// firing the next query, so queueing delay under overload shows up in the
// measured latency instead of silently throttling the offered rate (the
// coordinated-omission trap of closed-loop benchmarks).
type Arrival int

const (
	// Poisson draws exponential inter-arrival gaps: memoryless traffic,
	// the standard model for many independent users.
	Poisson Arrival = iota
	// Fixed fires at exact 1/rate intervals: a metronome, useful for
	// pinning capacity cliffs without Poisson burst noise.
	Fixed
)

func (a Arrival) String() string {
	switch a {
	case Poisson:
		return "poisson"
	case Fixed:
		return "fixed"
	}
	return fmt.Sprintf("arrival(%d)", int(a))
}

// schedule produces the deterministic inter-arrival gaps of one run: the
// same (process, rate, seed) triple always yields the same sequence, so a
// faulted run can be replayed exactly.
type schedule struct {
	arrival Arrival
	rate    float64 // arrivals per second
	rng     *rand.Rand
}

func newSchedule(arrival Arrival, rate float64, seed int64) *schedule {
	return &schedule{arrival: arrival, rate: rate, rng: rand.New(rand.NewSource(seed))}
}

// next returns the gap before the following arrival.
func (s *schedule) next() time.Duration {
	switch s.arrival {
	case Poisson:
		return time.Duration(s.rng.ExpFloat64() / s.rate * float64(time.Second))
	default:
		return time.Duration(float64(time.Second) / s.rate)
	}
}
