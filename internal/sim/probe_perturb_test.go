package sim

import (
	"fmt"
	"testing"

	"tppsim/internal/core"
	"tppsim/internal/probe"
	"tppsim/internal/tier"
	"tppsim/internal/workload"
)

// TestProbesDoNotPerturbRuns pins the probe plane's observer contract:
// the same seed with latency histograms on, the phase profiler on, or
// tracepoint subscribers attached must reproduce the probes-off run's
// scalars, vmstat counters, and sampled series bit for bit. Wall-clock
// phase laps and histogram observations never feed back into sim state.
func TestProbesDoNotPerturbRuns(t *testing.T) {
	baseCfg := func() Config {
		return Config{
			Seed: 7, Policy: core.TPP(),
			Workload:         workload.Catalog["Web1"](8 * 1024),
			Topology:         tier.PresetCXL(2, 1),
			Minutes:          6,
			SampleEveryTicks: 1,
		}
	}
	runOnce := func(mut func(*Config), prep func(*Machine)) (*Machine, string, string) {
		cfg := baseCfg()
		if mut != nil {
			mut(&cfg)
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if prep != nil {
			prep(m)
		}
		res := m.Run()
		if res.Failed {
			t.Fatal(res.FailReason)
		}
		scalars := fmt.Sprintf("%v/%v/%v", res.NormalizedThroughput, res.AvgLocalTraffic, res.AvgLatencyNs)
		return m, scalars, seriesDigest(res.NodeSeries)
	}

	mOff, sOff, dOff := runOnce(nil, nil)
	if mOff.Results().LatencyHist != nil || mOff.Results().PhaseProfile != nil {
		t.Error("probes-off run grew a probe plane")
	}

	var fired struct{ demote, promote, stall, wake int }
	variants := []struct {
		name string
		mut  func(*Config)
		prep func(*Machine)
	}{
		{"latency", func(c *Config) { c.ProbeLatency = true }, nil},
		{"phases", func(c *Config) { c.ProbePhases = true }, nil},
		{"both", func(c *Config) { c.ProbeLatency = true; c.ProbePhases = true }, nil},
		{"hooks", nil, func(m *Machine) {
			p := m.EnableProbes()
			p.OnDemote.Attach(func(probe.MigrateEvent) { fired.demote++ })
			p.OnPromote.Attach(func(probe.MigrateEvent) { fired.promote++ })
			p.OnAllocStall.Attach(func(probe.AllocStallEvent) { fired.stall++ })
			p.OnReclaimWake.Attach(func(probe.ReclaimWakeEvent) { fired.wake++ })
		}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			m, s, d := runOnce(v.mut, v.prep)
			if s != sOff {
				t.Errorf("probes changed scalars: off %s, on %s", sOff, s)
			}
			if d != dOff {
				t.Errorf("probes changed sampled series: off %s, on %s", dOff, d)
			}
			if mOff.Stat().Snapshot() != m.Stat().Snapshot() {
				t.Error("probes changed vmstat counters")
			}
			switch v.name {
			case "latency", "both":
				lat := m.Results().LatencyHist
				if lat == nil {
					t.Fatal("run has no latency histograms")
				}
				if total := lat.TotalAccess(); total.Count() == 0 {
					t.Error("access histograms recorded nothing")
				}
			case "phases":
				if m.Results().PhaseProfile == nil {
					t.Error("run has no phase profile")
				}
			}
		})
	}
	// The demotion/promotion/reclaim tracepoints must actually fire on
	// this workload; allocstall is load-dependent, so only assert the
	// migration and reclaim paths.
	if fired.demote == 0 || fired.promote == 0 || fired.wake == 0 {
		t.Errorf("tracepoints silent: demote=%d promote=%d stall=%d wake=%d",
			fired.demote, fired.promote, fired.stall, fired.wake)
	}
}
