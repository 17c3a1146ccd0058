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
// negative run length or rate, or of a negative or non-finite scale,
// instead of building a machine that never ends, panics or charges
// negative latency, and that zero and a negative Workers stay valid.
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
	} {
		cfg := base()
		c.mut(&cfg)
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: New error = %v, want one naming %s", c.field, err, c.field)
		}
	}
	for name, mut := range map[string]func(*Config){
		"zero defaults": func(*Config) {},
		"auto workers":  func(c *Config) { c.Workers = WorkersAuto },
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
