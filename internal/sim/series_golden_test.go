package sim

import (
	"fmt"
	"hash/fnv"
	"testing"

	"tppsim/internal/core"
	"tppsim/internal/mem"
	"tppsim/internal/series"
	"tppsim/internal/tier"
	"tppsim/internal/vmstat"
	"tppsim/internal/workload"
)

// seriesDigest compresses a sampled series into a pinnable string:
// shape, a spot-check of headline cells, and an FNV-1a hash over every
// retained cell — any bit of drift in any column changes it.
func seriesDigest(s *series.Series) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(s.Nodes()))
	put(s.Cadence())
	put(uint64(s.Len()))
	for n := 0; n < s.Nodes(); n++ {
		for c := 0; c < vmstat.NumCounters; c++ {
			for i := 0; i < s.Len(); i++ {
				put(s.Delta(n, vmstat.Counter(c), i))
			}
		}
		for k := 0; k < series.NumLevels; k++ {
			for i := 0; i < s.Len(); i++ {
				put(s.Level(n, series.LevelKind(k), i))
			}
		}
	}
	return fmt.Sprintf("%dx%d h=%016x promo0=%d resid0end=%d",
		s.Len(), s.Cadence(), h.Sum64(),
		s.DeltaTotal(0, vmstat.PgpromoteSuccess),
		s.Level(0, series.LevelResident, s.Len()-1))
}

// TestSampledSeriesGolden pins the live-sampled series plane on the
// 2-node box and the 3-tier expander the same way the scalar goldens
// pin the machine: fixed seed, exact digest. The budgets force
// coarsening on both machines, so the pin covers the merge path too.
// Recapture (with a commit-message note) if simulation behavior
// legitimately changes.
func TestSampledSeriesGolden(t *testing.T) {
	cases := []struct {
		name   string
		topo   tier.Spec
		ratio  [2]uint64
		digest string
	}{
		{
			name:   "cxl-2node",
			ratio:  [2]uint64{2, 1},
			digest: "300x2 h=7c5c0eb7a8a92da3 promo0=4164 resid0end=10431",
		},
		{
			name:   "expander-3tier",
			topo:   tier.PresetExpander(2, 1, 1),
			digest: "300x2 h=9487f07576d5d909 promo0=2298 resid0end=7810",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Seed: 7, Policy: core.TPP(),
				Workload:         workload.Catalog["Cache2"](16 * 1024),
				Minutes:          10,
				SampleEveryTicks: 1,
				SampleBudget:     512, // 600 ticks -> one coarsening pass
			}
			if len(tc.topo.Nodes) > 0 {
				cfg.Topology = tc.topo
			} else {
				cfg.Topology = tier.PresetCXL(tc.ratio[0], tc.ratio[1])
			}
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res := m.Run()
			if res.Failed {
				t.Fatalf("run failed: %s", res.FailReason)
			}
			if res.NodeSeries == nil {
				t.Fatal("no series sampled")
			}
			if got := seriesDigest(res.NodeSeries); got != tc.digest {
				t.Errorf("series digest = %q, want %q", got, tc.digest)
			}
			// The plane is an observer: per-window flow totals equal the
			// machine's final counters for every node and counter.
			for n := 0; n < res.NodeSeries.Nodes(); n++ {
				for c := 0; c < vmstat.NumCounters; c++ {
					want := m.Stat().GetNode(mem.NodeID(n), vmstat.Counter(c))
					if got := res.NodeSeries.DeltaTotal(n, vmstat.Counter(c)); got != want {
						t.Errorf("node %d %s: series total %d != final counter %d",
							n, vmstat.Counter(c), got, want)
					}
				}
			}
		})
	}
}

// TestSamplingDoesNotPerturbRuns pins the off-by-default contract from
// the other side: the same seed with sampling on must reproduce the
// sampling-off run's scalars and counters exactly — the plane observes,
// it never steers.
func TestSamplingDoesNotPerturbRuns(t *testing.T) {
	runOnce := func(sample int) (*Machine, string) {
		m, err := New(Config{
			Seed: 7, Policy: core.TPP(),
			Workload:         workload.Catalog["Web1"](8 * 1024),
			Topology:         tier.PresetCXL(2, 1),
			Minutes:          6,
			SampleEveryTicks: sample,
		})
		if err != nil {
			t.Fatal(err)
		}
		res := m.Run()
		if res.Failed {
			t.Fatal(res.FailReason)
		}
		return m, fmt.Sprintf("%v/%v/%v", res.NormalizedThroughput, res.AvgLocalTraffic, res.AvgLatencyNs)
	}
	mOff, sOff := runOnce(0)
	mOn, sOn := runOnce(1)
	if sOff != sOn {
		t.Errorf("sampling changed scalars: off %s, on %s", sOff, sOn)
	}
	if mOff.Stat().Snapshot() != mOn.Stat().Snapshot() {
		t.Error("sampling changed vmstat counters")
	}
	if mOff.Results().NodeSeries != nil {
		t.Error("sampling-off run grew a series")
	}
	if mOn.Results().NodeSeries == nil {
		t.Error("sampling-on run has no series")
	}
}
