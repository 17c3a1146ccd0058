package sim

import (
	"math"
	"strings"
	"testing"

	"tppsim/internal/core"
	"tppsim/internal/mem"
	"tppsim/internal/pagetable"
	"tppsim/internal/tier"
	"tppsim/internal/workload"
)

// TestNewRejectsBadRunFields checks that New names the field of a
// negative run length or rate, of a negative or non-finite scale, or of
// a negative, non-finite or out-of-range per-node latency, instead of
// building a machine that never ends, panics, charges negative or
// infinite latency or drops the entry, and that zero entries and the
// Fig. 16 latency override stay valid.
func TestNewRejectsBadRunFields(t *testing.T) {
	base := func() Config {
		return Config{Seed: 1, Policy: core.TPP(), Workload: workload.Catalog["Cache1"](2048), Minutes: 1}
	}
	for _, c := range []struct {
		field string
		mut   func(*Config)
	}{
		{"Minutes", func(c *Config) { c.Minutes = -5 }},
		{"AccessesPerTick", func(c *Config) { c.AccessesPerTick = -1 }},
		{"RecordEveryTicks", func(c *Config) { c.RecordEveryTicks = -30 }},
		{"SampleEveryTicks", func(c *Config) { c.SampleEveryTicks = -1 }},
		{"SampleBudget", func(c *Config) { c.SampleEveryTicks, c.SampleBudget = 1, -1 }},
		{"AccessScale", func(c *Config) { c.AccessScale = -100 }},
		{"AccessScale", func(c *Config) { c.AccessScale = math.NaN() }},
		{"AccessScale", func(c *Config) { c.AccessScale = math.Inf(1) }},
		{"Slack", func(c *Config) { c.Slack = -0.1 }},
		{"Slack", func(c *Config) { c.Slack = math.Inf(-1) }},
		{"NodeLatencyNs[1]", func(c *Config) { c.Ratio, c.NodeLatencyNs = [2]uint64{1, 4}, []float64{0, math.Inf(1)} }},
		{"NodeLatencyNs[0]", func(c *Config) { c.NodeLatencyNs = []float64{-100} }},
		{"NodeLatencyNs[1]", func(c *Config) { c.NodeLatencyNs = []float64{0, math.NaN()} }},
		{"NodeLatencyNs[2]", func(c *Config) { c.NodeLatencyNs = []float64{0, 300, 400} }},
	} {
		cfg := base()
		c.mut(&cfg)
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: New error = %v, want one naming %s", c.field, err, c.field)
		}
	}
	for name, mut := range map[string]func(*Config){
		"zero defaults":   func(*Config) {},
		"Fig. 16 latency": func(c *Config) { c.NodeLatencyNs = []float64{0, 300} },
	} {
		cfg := base()
		mut(&cfg)
		if _, err := New(cfg); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestNewRejectsTooManyFrames checks that New names the sizing field of
// a machine with more frames than the page table can map, before it
// allocates anything per frame, and builds a huge-page machine of the
// same base-page size, whose frames are 512 times fewer.
func TestNewRejectsTooManyFrames(t *testing.T) {
	limit := uint64(pagetable.PFNLimit)
	base := func() Config {
		return Config{Seed: 1, Policy: core.TPP(), Workload: workload.Catalog["Cache1"](2048), Minutes: 1}
	}
	for _, c := range []struct {
		field string
		mut   func(*Config)
	}{
		{"LocalPages+CXLPages", func(c *Config) { c.LocalPages, c.CXLPages = limit/2, limit/2+1 }},
		{"Topology", func(c *Config) {
			c.Topology = tier.Spec{Nodes: []tier.NodeSpec{{Kind: mem.KindLocal, Pages: limit}}}
		}},
	} {
		cfg := base()
		c.mut(&cfg)
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: New error = %v, want one naming %s", c.field, err, c.field)
		}
	}
	cfg := base()
	cfg.LocalPages, cfg.CXLPages, cfg.HugePages = limit+1, 0, true
	if _, err := New(cfg); err != nil {
		t.Errorf("huge machine of %d pages: %v", cfg.LocalPages, err)
	}
}
