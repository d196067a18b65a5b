package analysis_test

import (
	"testing"

	"passcloud/internal/analysis"
	"passcloud/internal/analysis/analysistest"
)

// TestSimclockFixture proves simclock catches wall-clock origination,
// permits sim.Clock use and time arithmetic (including the
// time.Time.After method), and honours the allow directive.
func TestSimclockFixture(t *testing.T) {
	analysistest.Run(t, analysis.Simclock, "passcloud/internal/fix/simclock")
}

// TestSimclockScope proves cmd/... packages are out of scope: commands
// sit at the process boundary, where wall time may legitimately originate.
func TestSimclockScope(t *testing.T) {
	analysistest.Run(t, analysis.Simclock, "passcloud/cmd/fixscope")
}
