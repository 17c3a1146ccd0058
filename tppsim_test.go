package tppsim

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"tppsim/internal/experiments"
)

func TestQuickstartFacade(t *testing.T) {
	wl := Workloads["Cache1"](8 * 1024)
	m, err := NewMachine(MachineConfig{
		Seed:     7,
		Policy:   TPP(),
		Workload: wl,
		Topology: TopologyCXL(2, 1),
		Minutes:  10,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if res.Failed {
		t.Fatalf("run failed: %s", res.FailReason)
	}
	if res.NormalizedThroughput <= 0.5 || res.NormalizedThroughput > 1.05 {
		t.Fatalf("throughput out of range: %v", res.NormalizedThroughput)
	}
}

func TestWorkloadCatalogExposed(t *testing.T) {
	names := WorkloadNames()
	// The paper's eight production workloads plus the three trace-backed
	// generated scenarios.
	want := []string{
		"Ads1", "Ads2", "Ads3", "AdvChurn", "Cache1", "Cache2",
		"PhaseShift", "SeqScan", "Warehouse", "Web1", "Web2",
	}
	if len(names) != len(want) {
		t.Fatalf("WorkloadNames = %v", names)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("WorkloadNames[%d] = %q, want %q (all: %v)", i, names[i], n, names)
		}
		if Workloads[n] == nil {
			t.Fatalf("catalog missing %s", n)
		}
	}
}

// TestRecordReplayFacade drives the exported Record/Replay/OpenTrace
// surface end to end: record a run, replay it identically, and re-drive
// the same trace under a different policy.
func TestRecordReplayFacade(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache1.trace.gz")
	cfg := MachineConfig{
		Seed:     7,
		Policy:   TPP(),
		Workload: Workloads["Cache1"](4 * 1024),
		Topology: TopologyCXL(2, 1),
		Minutes:  5,
	}
	base, err := Record(cfg, path)
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	if base.Failed {
		t.Fatalf("recorded run failed: %s", base.FailReason)
	}

	tr, err := OpenTrace(path)
	if err != nil {
		t.Fatalf("OpenTrace: %v", err)
	}
	if tr.Header.Name != "Cache1" || tr.Header.TotalPages != cfg.Workload.TotalPages() {
		t.Fatalf("trace header = %+v", tr.Header)
	}

	rep, err := Replay(path, cfg)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if rep.NormalizedThroughput != base.NormalizedThroughput ||
		rep.AvgLocalTraffic != base.AvgLocalTraffic ||
		rep.AvgLatencyNs != base.AvgLatencyNs {
		t.Fatalf("replay diverged: recorded %v/%v/%v, replayed %v/%v/%v",
			base.NormalizedThroughput, base.AvgLocalTraffic, base.AvgLatencyNs,
			rep.NormalizedThroughput, rep.AvgLocalTraffic, rep.AvgLatencyNs)
	}

	cfg.Policy = DefaultLinux()
	other, err := Replay(path, cfg)
	if err != nil {
		t.Fatalf("Replay under DefaultLinux: %v", err)
	}
	if other.Failed {
		t.Fatalf("cross-policy replay failed: %s", other.FailReason)
	}
}

// TestReplayOptionsFacade exercises the exported loop/truncate options
// and the recorded-topology adoption: a machine recorded on the 3-tier
// expander replays on the identical machine when the caller specifies no
// sizing, reproducing the recorded scalars exactly.
func TestReplayOptionsFacade(t *testing.T) {
	path := filepath.Join(t.TempDir(), "expander.trace")
	cfg := MachineConfig{
		Seed:     11,
		Policy:   TPP(),
		Workload: Workloads["Cache2"](4 * 1024),
		Topology: TopologyExpander(2, 1, 1),
		Minutes:  4,
	}
	base, err := Record(cfg, path)
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	if base.Failed {
		t.Fatalf("recorded run failed: %s", base.FailReason)
	}

	tr, err := OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Header.Topology == nil || len(tr.Header.Topology.Nodes) != 3 {
		t.Fatalf("trace did not record the 3-node topology: %+v", tr.Header.Topology)
	}

	// No sizing in the replay config: the recorded machine is rebuilt,
	// so the replay reproduces the recorded run exactly.
	rep, err := Replay(path, MachineConfig{Seed: 11, Policy: TPP()})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if rep.NormalizedThroughput != base.NormalizedThroughput ||
		rep.AvgLocalTraffic != base.AvgLocalTraffic ||
		rep.AvgLatencyNs != base.AvgLatencyNs {
		t.Fatalf("adopted-topology replay diverged: recorded %v/%v/%v, replayed %v/%v/%v",
			base.NormalizedThroughput, base.AvgLocalTraffic, base.AvgLatencyNs,
			rep.NormalizedThroughput, rep.AvgLocalTraffic, rep.AvgLatencyNs)
	}

	// Truncate to the first minute of the trace.
	short, err := Replay(path, MachineConfig{Seed: 11, Policy: TPP()},
		ReplayOptions{MaxTicks: 60})
	if err != nil {
		t.Fatalf("Replay truncated: %v", err)
	}
	if short.Failed {
		t.Fatalf("truncated replay failed: %s", short.FailReason)
	}

	// Loop a 4-minute trace through an 8-minute run.
	looped, err := Replay(path, MachineConfig{Seed: 11, Policy: DefaultLinux(), Minutes: 8},
		ReplayOptions{Loop: true})
	if err != nil {
		t.Fatalf("Replay looped: %v", err)
	}
	if looped.Failed {
		t.Fatalf("looped replay failed: %s", looped.FailReason)
	}

	if _, err := Replay(path, MachineConfig{Seed: 11, Policy: TPP()},
		ReplayOptions{}, ReplayOptions{}); err == nil {
		t.Fatal("two ReplayOptions values accepted")
	}
}

// TestReplayHugePagesKeepsRecordedNodes pins the huge-page replay: a
// trace header carries the recorded nodes but not the page size, so
// Replay with Topology{HugePages: true} adopts the recorded nodes, keeps
// the 2 MB frames, and reproduces the recorded run's scalars and every
// node's vmstat.
func TestReplayHugePagesKeepsRecordedNodes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "huge.trace")
	huge := Topology{HugePages: true}
	base, err := Record(MachineConfig{
		Seed:     3,
		Policy:   TPP(),
		Workload: Workloads["Cache1"](64 << 10),
		Topology: huge,
		Minutes:  3,
	}, path)
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	if base.Failed || base.MemStats.FramePages != 512 {
		t.Fatalf("recorded run: failed=%v (%s), %d pages per frame", base.Failed, base.FailReason, base.MemStats.FramePages)
	}
	rep, err := Replay(path, MachineConfig{Seed: 3, Policy: TPP(), Topology: huge})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if rep.MemStats.FramePages != 512 {
		t.Fatalf("replay ran in %d-page frames, want 512", rep.MemStats.FramePages)
	}
	if rep.String() != base.String() || rep.AvgLatencyNs != base.AvgLatencyNs {
		t.Fatalf("replay scalars %s, recorded %s", rep, base)
	}
	if len(rep.Nodes) != len(base.Nodes) {
		t.Fatalf("replay has %d nodes, recorded %d", len(rep.Nodes), len(base.Nodes))
	}
	for i := range base.Nodes {
		if rep.Nodes[i].CapacityPages != base.Nodes[i].CapacityPages || rep.Nodes[i].Counters != base.Nodes[i].Counters {
			t.Errorf("node %d: replay diverges from the recording:\n got:\n%s want:\n%s",
				i, rep.Nodes[i].Counters.String(), base.Nodes[i].Counters.String())
		}
	}
}

// TestReplayRejectsNaNTopology: trace headers carry the machine's
// floats as raw bits, so a corrupt or hand-written header can hold a
// NaN scale factor. Adopting that topology must fail the replay with an
// error, not build a machine with nonsense watermarks.
func TestReplayRejectsNaNTopology(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cxl.trace")
	cfg := MachineConfig{
		Seed:     5,
		Policy:   TPP(),
		Workload: Workloads["Cache1"](2 * 1024),
		Topology: TopologyCXL(2, 1),
		Minutes:  1,
	}
	if _, err := Record(cfg, path); err != nil {
		t.Fatalf("Record: %v", err)
	}
	tr, err := OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	tr.Header.Topology.DemoteScaleFactor = math.NaN()
	bad := filepath.Join(dir, "nan.trace")
	if err := tr.Save(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(bad, MachineConfig{Seed: 5, Policy: TPP()}); err == nil {
		t.Fatal("replay adopted a topology with a NaN demote scale factor")
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, s := range Experiments() {
		ids[s.ID] = true
		if s.Caption == "" || s.Run == nil {
			t.Fatalf("experiment %s incomplete", s.ID)
		}
	}
	// Every paper artifact must be present.
	want := []string{
		"Fig2", "Fig3", "Fig4", "Fig5", "Fig7", "Fig8", "Fig9", "Fig10", "Fig11",
		"Table1", "Fig14", "Fig15", "Fig16", "Fig17", "Fig18", "Table2", "Fig19",
		"Table3", "Table4", "X1", "X2", "X3",
	}
	for _, id := range want {
		if !ids[id] {
			t.Errorf("registry missing %s", id)
		}
	}
}

// TestShapeTable1 asserts the paper's headline orderings at reduced scale:
// TPP beats Default Linux under pressure and AutoTiering fails at 1:4.
func TestShapeTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("integration shape test")
	}
	o := experiments.Options{Pages: 8 * 1024, Minutes: 25}
	runOne := func(p Policy, wl string, ratio [2]uint64) *RunResult {
		m, err := NewMachine(MachineConfig{
			Seed: 1, Policy: p, Workload: Workloads[wl](o.Pages), Topology: TopologyCXL(ratio[0], ratio[1]), Minutes: o.Minutes,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m.Run()
	}

	def := runOne(DefaultLinux(), "Web1", [2]uint64{2, 1})
	tpp := runOne(TPP(), "Web1", [2]uint64{2, 1})
	if tpp.NormalizedThroughput <= def.NormalizedThroughput {
		t.Errorf("Web1 2:1: TPP %.3f <= Default %.3f", tpp.NormalizedThroughput, def.NormalizedThroughput)
	}
	if tpp.NormalizedThroughput < 0.95 {
		t.Errorf("Web1 2:1: TPP not near baseline: %.3f", tpp.NormalizedThroughput)
	}

	at := runOne(AutoTiering(), "Cache1", [2]uint64{1, 4})
	if !at.Failed {
		t.Error("Cache1 1:4: AutoTiering did not fail")
	}
	at21 := runOne(AutoTiering(), "Cache1", [2]uint64{2, 1})
	if at21.Failed {
		t.Error("Cache1 2:1: AutoTiering failed but should run")
	}
}

// TestShapeDecoupling asserts Fig. 17's direction: decoupling increases
// promotion throughput under pressure.
func TestShapeDecoupling(t *testing.T) {
	if testing.Short() {
		t.Skip("integration shape test")
	}
	res := experiments.Fig17(experiments.Options{Pages: 8 * 1024, Minutes: 25})
	if len(res.Table.Rows) < 4 {
		t.Fatal("Fig17 incomplete")
	}
	if !strings.Contains(res.Table.String(), "promotion rate") {
		t.Fatal("Fig17 missing promotion rate")
	}
}

func TestExperimentStaticsRun(t *testing.T) {
	for _, id := range []string{"Fig2", "Fig3", "Fig4", "Fig5"} {
		spec, ok := experiments.Find(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		res := spec.Run(experiments.Options{})
		if len(res.Table.Rows) == 0 {
			t.Errorf("%s produced no rows", id)
		}
	}
}
