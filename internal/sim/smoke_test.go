package sim

import (
	"testing"

	"tppsim/internal/core"
	"tppsim/internal/tier"
	"tppsim/internal/workload"
)

// smokeRun executes a short scenario and returns the results.
func smokeRun(t *testing.T, policy core.Policy, wlName string, ratio [2]uint64, minutes int) *Machine {
	t.Helper()
	wl := workload.Catalog[wlName](16 * 1024)
	m, err := New(Config{
		Seed:     1,
		Policy:   policy,
		Workload: wl,
		Topology: tier.PresetCXL(ratio[0], ratio[1]),
		Minutes:  minutes,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	return m
}

func TestBaselineAllLocal(t *testing.T) {
	m := smokeRun(t, core.DefaultLinux(), "Cache1", [2]uint64{1, 0}, 20)
	r := m.Results()
	if r.Failed {
		t.Fatalf("baseline failed: %s", r.FailReason)
	}
	if r.AvgLocalTraffic < 0.999 {
		t.Fatalf("baseline local traffic = %v", r.AvgLocalTraffic)
	}
	if r.NormalizedThroughput < 0.98 {
		t.Fatalf("baseline throughput = %v", r.NormalizedThroughput)
	}
}

func TestTPPBeatsDefaultOnWeb1(t *testing.T) {
	def := smokeRun(t, core.DefaultLinux(), "Web1", [2]uint64{2, 1}, 40).Results()
	tpp := smokeRun(t, core.TPP(), "Web1", [2]uint64{2, 1}, 40).Results()
	if def.Failed || tpp.Failed {
		t.Fatalf("runs failed: def=%v tpp=%v", def.FailReason, tpp.FailReason)
	}
	if tpp.AvgLocalTraffic <= def.AvgLocalTraffic {
		t.Fatalf("TPP local %.3f <= default %.3f", tpp.AvgLocalTraffic, def.AvgLocalTraffic)
	}
	if tpp.NormalizedThroughput <= def.NormalizedThroughput {
		t.Fatalf("TPP throughput %.3f <= default %.3f", tpp.NormalizedThroughput, def.NormalizedThroughput)
	}
}

func TestDeterminism(t *testing.T) {
	a := smokeRun(t, core.TPP(), "Cache2", [2]uint64{2, 1}, 15)
	b := smokeRun(t, core.TPP(), "Cache2", [2]uint64{2, 1}, 15)
	if !a.Stat().Snapshot().Equal(b.Stat().Snapshot()) {
		t.Fatal("same seed produced different vmstat snapshots")
	}
}
