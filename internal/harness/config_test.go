package harness

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"mptcpsim/internal/scenario"
	"mptcpsim/internal/sim"
)

// TestConfigValidate locks the validation contract: zero values keep their
// documented defaults, while actively wrong inputs (negative counts and
// windows, odd fabric arity) error instead of silently running nonsense.
func TestConfigValidate(t *testing.T) {
	valid := tinyConfig()
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string // empty means valid
	}{
		{"default config", func(c *Config) { *c = DefaultConfig() }, ""},
		{"full config", func(c *Config) { *c = FullConfig() }, ""},
		{"zero workers selects GOMAXPROCS", func(c *Config) { c.Workers = 0 }, ""},
		{"zero seeds selects one repetition", func(c *Config) { c.Seeds = 0 }, ""},
		{"zero warmup is a valid window", func(c *Config) { c.Warmup, c.DCWarmup = 0, 0 }, ""},
		{"negative workers", func(c *Config) { c.Workers = -1 }, "negative worker count"},
		{"negative seeds", func(c *Config) { c.Seeds = -3 }, "negative seed count"},
		{"zero duration renders NaN metrics", func(c *Config) { c.Duration = 0 }, "duration must be positive"},
		{"negative duration", func(c *Config) { c.Duration = -sim.Second }, "duration must be positive"},
		{"negative warmup", func(c *Config) { c.Warmup = -sim.Millisecond }, "duration must be positive and warmup"},
		{"zero DC duration", func(c *Config) { c.DCDuration = 0 }, "data-center duration must be positive"},
		{"negative DC duration", func(c *Config) { c.DCDuration = -sim.Second }, "data-center duration must be positive"},
		{"negative DC warmup", func(c *Config) { c.DCWarmup = -sim.Second }, "data-center duration must be positive and warmup"},
		{"odd FatTree arity", func(c *Config) { c.FatTreeK = 5 }, "must be even"},
		{"negative FatTree arity", func(c *Config) { c.FatTreeK = -4 }, "must be even"},
		{"zero FatTree arity", func(c *Config) { c.FatTreeK = 0 }, "must be even and at least 2"},
		{"no subflow counts", func(c *Config) { c.Subflows = nil }, "no subflow counts"},
		{"zero subflow count", func(c *Config) { c.Subflows = []int{2, 0} }, "subflow count"},
		{"run window at a scenario's bound", func(c *Config) { c.Warmup, c.Duration = 0, sim.Seconds(scenario.MaxSpecSec) }, ""},
		{"run window beyond a scenario's bound", func(c *Config) { c.Duration = sim.Seconds(scenario.MaxSpecSec) }, "longer than"},
		{"DC window beyond a scenario's bound", func(c *Config) { c.DCDuration = sim.Seconds(scenario.MaxSpecSec) }, "longer than"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestCollectResultRejectsBadConfig wires validation into the experiment
// entry points: a broken config must error before any simulation runs.
func TestCollectResultRejectsBadConfig(t *testing.T) {
	cfg := tinyConfig()
	cfg.Seeds = -1
	if _, err := Get("fig1b").CollectResult(context.Background(), cfg, nil); err == nil {
		t.Fatal("CollectResult accepted a negative seed count")
	}
	var b strings.Builder
	if err := RunAll(context.Background(), cfg, []string{"fig1b"}, FormatText, &b, nil); err == nil {
		t.Fatal("RunAll accepted a negative seed count")
	}
	if b.Len() != 0 {
		t.Fatalf("RunAll wrote %d bytes despite invalid config", b.Len())
	}
}

// TestConfigHasNoHiddenState: a Config is plain data — every field exported —
// so it can be copied, compared field by field and printed without carrying
// a live pool, context or sink along.
func TestConfigHasNoHiddenState(t *testing.T) {
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); !f.IsExported() {
			t.Errorf("Config.%s is unexported: per-call state travels as arguments, not in the configuration", f.Name)
		}
	}
}
