package load

import "testing"

// TestFleetCloseOnPartialBuild pins the construction-failure unwind:
// Close on a fleet whose later groups were never built must not panic.
func TestFleetCloseOnPartialBuild(t *testing.T) {
	f := &Fleet{groups: make([]*fleetGroup, 3)}
	f.Close()
}
