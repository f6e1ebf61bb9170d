package determinism_test

import (
	"testing"

	"mptcpsim/internal/lint/determinism"
	"mptcpsim/internal/lint/linttest"
)

func TestDeterminism(t *testing.T) {
	linttest.Run(t, "testdata", "mptcpsim/internal/sim/dcase", determinism.Analyzer)
}

// TestOutOfScope proves the AppliesTo gate: the same constructs that are
// findings inside the simulation packages are silently allowed elsewhere.
func TestOutOfScope(t *testing.T) {
	linttest.Run(t, "testdata", "example.com/outside", determinism.Analyzer)
}

func TestInScope(t *testing.T) {
	for path, want := range map[string]bool{
		"mptcpsim/internal/sim":        true,
		"mptcpsim/internal/sim/dcase":  true,
		"mptcpsim/internal/netem":      true,
		"mptcpsim/internal/simulator":  false,
		"mptcpsim":                     false,
		"mptcpsim/internal/lint":       false,
		"mptcpsim/internal/runner":     false,
		"example.com/internal/sim":     false,
		"mptcpsim/internal/mptcpwalk":  false,
		"mptcpsim/internal/mptcp/sub":  true,
		"mptcpsim/internal/scenario":   true,
		"mptcpsim/internal/scenario/x": true,
		"mptcpsim/internal/harness":    true,
	} {
		if got := determinism.InScope(path); got != want {
			t.Errorf("InScope(%q) = %v, want %v", path, got, want)
		}
	}
}
