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

// cxlPages is the paper's 2-node box in absolute pages, in 2 MB frames
// when huge.
func cxlPages(local, cxl uint64, huge bool) tier.Spec {
	return tier.Spec{Nodes: []tier.NodeSpec{
		{Kind: mem.KindLocal, Pages: local},
		{Kind: mem.KindCXL, Pages: cxl},
	}, HugePages: huge}
}

// TestNewRejectsBadRunFields checks that New names the field of a
// negative run length or rate, of a negative or non-finite scale, or of
// a negative or non-finite node latency, instead of building a machine
// that never ends, panics, or charges negative or infinite latency, and
// that zero defaults and the Fig. 16 latency override stay valid.
func TestNewRejectsBadRunFields(t *testing.T) {
	base := func() Config {
		return Config{Seed: 1, Policy: core.TPP(), Workload: workload.Catalog["Cache1"](2048), Minutes: 1}
	}
	cxlLatency := func(ns float64) func(*Config) {
		return func(c *Config) {
			c.Topology = tier.PresetCXL(1, 4)
			c.Topology.Nodes[1].LoadLatencyNs = ns
		}
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
		{"node 1 load latency", cxlLatency(math.Inf(1))},
		{"node 1 load latency", cxlLatency(math.NaN())},
		{"node 0 load latency", func(c *Config) {
			c.Topology = tier.Spec{Nodes: []tier.NodeSpec{{Kind: mem.KindLocal, Share: 1, LoadLatencyNs: -100}}}
		}},
	} {
		cfg := base()
		c.mut(&cfg)
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: New error = %v, want one naming %s", c.field, err, c.field)
		}
	}
	for name, mut := range map[string]func(*Config){
		"zero defaults":   func(*Config) {},
		"Fig. 16 latency": cxlLatency(300),
	} {
		cfg := base()
		mut(&cfg)
		if _, err := New(cfg); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestNewRejectsTooManyFrames checks that New names the Topology of a
// machine with more frames than the page table can map, whether its
// nodes are sized by shares of the working set or in absolute pages,
// before it allocates anything per frame, and builds a huge-page machine
// of the same base-page size, whose frames are 512 times fewer.
func TestNewRejectsTooManyFrames(t *testing.T) {
	limit := uint64(pagetable.PFNLimit)
	base := func() Config {
		return Config{Seed: 1, Policy: core.TPP(), Workload: workload.Catalog["Cache1"](2048), Minutes: 1}
	}
	for name, mut := range map[string]func(*Config){
		"shares":         func(c *Config) { c.Workload = workload.Catalog["Cache1"](limit) },
		"absolute pages": func(c *Config) { c.Topology = cxlPages(limit/2, limit/2+1, false) },
	} {
		cfg := base()
		mut(&cfg)
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "Topology") {
			t.Errorf("%s: New error = %v, want one naming Topology", name, err)
		}
	}
	cfg := base()
	cfg.Topology = tier.Spec{Nodes: []tier.NodeSpec{{Kind: mem.KindLocal, Pages: limit + 1}}, HugePages: true}
	if _, err := New(cfg); err != nil {
		t.Errorf("huge machine of %d pages: %v", limit+1, err)
	}
}
