package sim

import (
	"fmt"
	"path/filepath"
	"testing"

	"tppsim/internal/core"
	"tppsim/internal/fault"
	"tppsim/internal/mem"
	"tppsim/internal/tier"
	"tppsim/internal/trace"
	"tppsim/internal/vmstat"
	"tppsim/internal/workload"
)

// TestFaultsDoNotPerturbRuns pins the fault plane's dormancy contract:
// a machine carrying a schedule whose events all lie beyond the run's
// end — injector constructed, retrier hooked into the engine, invariant
// checker running every tick — must reproduce the faults-off run's
// scalars, per-node vmstat counters, and sampled series bit for bit.
// The plane only draws randomness from its own seed, and only when an
// edge actually fires.
func TestFaultsDoNotPerturbRuns(t *testing.T) {
	baseCfg := func() Config {
		return Config{
			Seed: 7, Policy: core.TPP(),
			Workload:         workload.Catalog["Web1"](8 * 1024),
			Topology:         tier.PresetCXL(2, 1),
			Minutes:          6,
			SampleEveryTicks: 1,
		}
	}
	runOnce := func(mut func(*Config)) (*Machine, string, string) {
		cfg := baseCfg()
		if mut != nil {
			mut(&cfg)
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := m.Run()
		if res.Failed {
			t.Fatal(res.FailReason)
		}
		scalars := fmt.Sprintf("%v/%v/%v", res.NormalizedThroughput, res.AvgLocalTraffic, res.AvgLatencyNs)
		return m, scalars, seriesDigest(res.NodeSeries)
	}

	mOff, sOff, dOff := runOnce(nil)

	// Every event sits far beyond the 6-minute (360-tick) run.
	const beyond = 1 << 20
	mOn, sOn, dOn := runOnce(func(c *Config) {
		c.Faults = fault.Schedule{Seed: 99, Events: []fault.Event{
			{Kind: fault.NodeOffline, Node: 1, At: beyond, Until: beyond + 100},
			{Kind: fault.LatencyDegrade, Node: 1, At: beyond, Until: beyond + 100, Mult: 4, Jitter: 0.2},
			{Kind: fault.MigFailBegin, Node: -1, At: beyond, Prob: 0.9},
			{Kind: fault.CapacityLoss, Node: 1, At: beyond, Pages: 64},
		}}
	})
	if sOn != sOff {
		t.Errorf("dormant schedule changed scalars: off %s, on %s", sOff, sOn)
	}
	if dOn != dOff {
		t.Errorf("dormant schedule changed sampled series: off %s, on %s", dOff, dOn)
	}
	for n := 0; n < mOff.Stat().NumNodes(); n++ {
		if mOff.Stat().NodeSnapshot(mem.NodeID(n)) != mOn.Stat().NodeSnapshot(mem.NodeID(n)) {
			t.Errorf("dormant schedule changed node %d vmstat counters", n)
		}
	}
	if len(mOn.Results().FaultLog) != 0 {
		t.Errorf("dormant schedule produced %d fault occurrences", len(mOn.Results().FaultLog))
	}
}

// faultedExpanderCfg is the pinned faulted scenario: TPP driving the
// file-heavy Web1 on the 3-tier expander, with the far CXL node
// hot-removed mid-run and restored four minutes later.
func faultedExpanderCfg() Config {
	return Config{
		Seed: 7, Policy: core.TPP(),
		Workload: workload.Catalog["Web1"](8 * 1024),
		Topology: tier.PresetExpander(2, 1, 1),
		Minutes:  20,
		Faults: fault.Schedule{Seed: 11, Events: []fault.Event{
			{Kind: fault.NodeOffline, Node: 2, At: 480, Until: 720},
		}},
	}
}

// TestFaultedExpanderGolden pins one faulted run end to end the same
// way the scalar goldens pin unfaulted machines: exact scalar strings,
// exact fault counters, and a fault log matching the schedule. A second
// identically-configured machine must reproduce it bit for bit, and so
// must a replay of its recorded trace (the v6 header carries the
// schedule). Recapture (with a commit-message note) if simulation
// behavior legitimately changes.
func TestFaultedExpanderGolden(t *testing.T) {
	const (
		wantScalars   = "0.996469/0.994500/101.366000"
		wantEvacuated = 1736
	)
	run := func(mut func(*Config)) (*Machine, *trace.Trace) {
		cfg := faultedExpanderCfg()
		if mut != nil {
			mut(&cfg)
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := m.Run()
		if res.Failed {
			t.Fatalf("faulted run failed: %s", res.FailReason)
		}
		return m, nil
	}

	m, _ := run(nil)
	res := m.Results()
	scalars := fmt.Sprintf("%.6f/%.6f/%.6f", res.NormalizedThroughput, res.AvgLocalTraffic, res.AvgLatencyNs)
	if scalars != wantScalars {
		t.Errorf("scalars = %q, want %q", scalars, wantScalars)
	}
	st := m.Stat()
	if got := st.GetNode(2, vmstat.NodeOfflineEvents); got != 1 {
		t.Errorf("node 2 node_offline_events = %d, want 1", got)
	}
	if got := st.GetNode(2, vmstat.EvacuatedPages); got != wantEvacuated {
		t.Errorf("node 2 evacuated_pages = %d, want %d", got, wantEvacuated)
	}
	if on := m.Topology().Online(2); !on {
		t.Error("node 2 still offline after its online edge")
	}
	log := res.FaultLog
	if len(log) != 2 || log[0].Kind != fault.NodeOffline || log[0].Tick != 480 ||
		log[1].Kind != fault.NodeOnline || log[1].Tick != 720 {
		t.Fatalf("fault log = %v, want offline@480 then online@720", log)
	}

	// Same config, fresh machine: bit-identical.
	m2, _ := run(nil)
	if got := fmt.Sprintf("%.6f/%.6f/%.6f", m2.Results().NormalizedThroughput,
		m2.Results().AvgLocalTraffic, m2.Results().AvgLatencyNs); got != scalars {
		t.Errorf("re-run scalars = %q, want %q", got, scalars)
	}
	if m2.Stat().Snapshot() != st.Snapshot() {
		t.Error("re-run diverged in vmstat counters")
	}

	// Record, then replay adopting the header's schedule: bit-identical.
	path := filepath.Join(t.TempDir(), "faulted.trace")
	rec, _ := run(func(c *Config) { c.RecordTo = path })
	if err := rec.RecordError(); err != nil {
		t.Fatalf("recording: %v", err)
	}
	tr, err := trace.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Header.Faults == nil {
		t.Fatal("v6 header of a faulted run carries no schedule")
	}
	cfg := faultedExpanderCfg()
	cfg.Workload = tr.Replayer(trace.ReplayOptions{})
	cfg.Faults = *tr.Header.Faults
	rep, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	repRes := rep.Run()
	if repRes.Failed {
		t.Fatalf("replay failed: %s", repRes.FailReason)
	}
	if got := fmt.Sprintf("%.6f/%.6f/%.6f", repRes.NormalizedThroughput,
		repRes.AvgLocalTraffic, repRes.AvgLatencyNs); got != scalars {
		t.Errorf("replay scalars = %q, want %q", got, scalars)
	}
	for n := 0; n < st.NumNodes(); n++ {
		if rep.Stat().NodeSnapshot(mem.NodeID(n)) != st.NodeSnapshot(mem.NodeID(n)) {
			t.Errorf("replay diverged in node %d vmstat counters", n)
		}
	}
}

// TestMigFailWindowCounters drives a migration-failure window over a
// whole run and checks the retry/backoff counters move and the machine
// survives: injected failures are transient, never fatal.
func TestMigFailWindowCounters(t *testing.T) {
	cfg := Config{
		Seed: 7, Policy: core.TPP(),
		Workload: workload.Catalog["Web1"](8 * 1024),
		Topology: tier.PresetCXL(2, 1),
		Minutes:  10,
		Faults: fault.Schedule{Seed: 5, Events: []fault.Event{
			{Kind: fault.MigFailBegin, Node: -1, At: 60, Until: 480, Prob: 0.5, MaxRetries: 2},
		}},
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if res.Failed {
		t.Fatalf("migfail run failed: %s", res.FailReason)
	}
	st := m.Stat()
	if fails := st.Get(vmstat.PgmigrateFail); fails == 0 {
		t.Error("no injected failures charged to the pgmigrate_fail family")
	}
	if st.Get(vmstat.MigrateRetry) == 0 {
		t.Error("no migration retries counted")
	}
	if len(res.FaultLog) != 2 {
		t.Errorf("fault log has %d entries, want open+close", len(res.FaultLog))
	}
}

// TestFaultScheduleValidation rejects malformed schedules at assembly.
func TestFaultScheduleValidation(t *testing.T) {
	bad := []fault.Schedule{
		{Events: []fault.Event{{Kind: fault.NodeOffline, Node: 0, At: 5}}},                       // local node
		{Events: []fault.Event{{Kind: fault.NodeOffline, Node: 9, At: 5}}},                       // out of range
		{Events: []fault.Event{{Kind: fault.MigFailBegin, Prob: 1.5, At: 5}}},                    // bad prob
		{Events: []fault.Event{{Kind: fault.LatencyDegrade, Node: 1, At: 9, Until: 4, Mult: 2}}}, // empty window
	}
	for i, s := range bad {
		cfg := Config{
			Seed: 1, Policy: core.TPP(),
			Workload: workload.Catalog["Web1"](4 * 1024),
			Topology: tier.PresetCXL(2, 1),
			Minutes:  1,
			Faults:   s,
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("schedule %d: New accepted an invalid schedule", i)
		}
	}
}
