package sim

import (
	"strconv"
	"testing"

	"tppsim/internal/core"
	"tppsim/internal/mem"
	"tppsim/internal/tier"
	"tppsim/internal/vmstat"
	"tppsim/internal/workload"
)

// The golden values below were captured from the map-based address
// space / string-keyed vmstat implementation (pre flat-page-table
// refactor) and pin the simulator's observable behavior bit-for-bit:
// the hot-path data structures are free to change, the physics are not.
// If a change legitimately alters simulation behavior, recapture by
// printing the same quantities from this config and update the table
// with a note in the commit message.
var goldenRuns = []struct {
	wl         string
	minutes    int
	throughput string
	local      string
	latency    string
	vmstat     string
	nodeVmstat []string // per-node snapshots, node-ID order
}{
	{
		wl: "Web1", minutes: 12,
		throughput: "0.9988433116229649",
		local:      "0.9968666666666668",
		latency:    "100.44066666666667",
		vmstat: `numa_hint_faults 2332
numa_pages_scanned 7712
pgalloc_cxl 1289
pgalloc_local 29824
pgdeactivate 13231
pgdemote_anon 871
pgdemote_fail 13
pgdemote_fallback 13
pgdemote_file 4749
pgdemote_kswapd 5620
pgfree 14424
pgmigrate_fail 13
pgmigrate_success 6179
pgpromote_candidate 559
pgpromote_demoted 351
pgpromote_file 559
pgpromote_sampled 2332
pgpromote_success 559
pgrotated 52816
pgscan_kswapd 14761
pgsteal_kswapd 9
`,
		nodeVmstat: []string{`pgalloc_local 29824
pgdeactivate 13231
pgdemote_anon 871
pgdemote_fail 13
pgdemote_fallback 13
pgdemote_file 4749
pgdemote_kswapd 5620
pgfree 13452
pgmigrate_fail 13
pgmigrate_success 559
pgpromote_demoted 351
pgpromote_file 559
pgpromote_success 559
pgrotated 52816
pgscan_kswapd 14761
pgsteal_kswapd 9
`, `numa_hint_faults 2332
numa_pages_scanned 7712
pgalloc_cxl 1289
pgfree 972
pgmigrate_success 5620
pgpromote_candidate 559
pgpromote_sampled 2332
`},
	},
	{
		wl: "Cache2", minutes: 10,
		throughput: "0.9787817006593561",
		local:      "0.8406224472611189",
		latency:    "119.67079210252616",
		vmstat: `numa_hint_faults 7299
numa_pages_scanned 9948
pgalloc_cxl 4132
pgalloc_local 10941
pgdeactivate 71360
pgdemote_anon 1181
pgdemote_fail 10
pgdemote_fallback 10
pgdemote_file 3493
pgdemote_kswapd 4674
pgmigrate_fail 19
pgmigrate_success 8838
pgpromote_anon 2075
pgpromote_candidate 5956
pgpromote_demoted 1027
pgpromote_file 2089
pgpromote_sampled 7299
pgpromote_success 4164
pgrotated 207523
pgscan_kswapd 9657
promote_fail_low_memory 1783
promote_fail_page_refs 9
`,
		nodeVmstat: []string{`pgalloc_local 10941
pgdeactivate 71360
pgdemote_anon 1181
pgdemote_fail 10
pgdemote_fallback 10
pgdemote_file 3493
pgdemote_kswapd 4674
pgmigrate_fail 10
pgmigrate_success 4164
pgpromote_anon 2075
pgpromote_demoted 1027
pgpromote_file 2089
pgpromote_success 4164
pgrotated 207523
pgscan_kswapd 9657
`, `numa_hint_faults 7299
numa_pages_scanned 9948
pgalloc_cxl 4132
pgmigrate_fail 9
pgmigrate_success 4674
pgpromote_candidate 5956
pgpromote_sampled 7299
promote_fail_low_memory 1783
promote_fail_page_refs 9
`},
	},
}

// TestSeedDeterminismGoldenMultiTier pins the 3-tier expander preset the
// same way the 2-node golden pins the default machine: fixed-seed TPP on
// the multi-hop cascade must reproduce these exact scalars and counters.
// Captured at the introduction of the topology API; recapture (with a
// commit-message note) if simulation behavior legitimately changes.
func TestSeedDeterminismGoldenMultiTier(t *testing.T) {
	const (
		throughput = "0.9204845112030831"
		local      = "0.5401190806665407"
		latency    = "178.00277621947154"
		vmstatWant = `numa_hint_faults 8776
numa_pages_scanned 11181
pgalloc_cxl 6114
pgalloc_local 8959
pgdeactivate 66682
pgdemote_anon 3279
pgdemote_fail 390
pgdemote_fallback 22
pgdemote_far 5631
pgdemote_file 5432
pgdemote_kswapd 8711
pgmigrate_fail 398
pgmigrate_success 13667
pgpromote_anon 2086
pgpromote_candidate 6514
pgpromote_demoted 2980
pgpromote_far 2658
pgpromote_file 2870
pgpromote_sampled 8776
pgpromote_success 4956
pgrotated 202609
pgscan_kswapd 21084
promote_fail_low_memory 1550
promote_fail_page_refs 8
`
	)
	nodeVmstatWant := []string{`pgalloc_local 8959
pgdeactivate 49264
pgdemote_anon 1060
pgdemote_fail 376
pgdemote_fallback 8
pgdemote_file 2387
pgdemote_kswapd 3447
pgmigrate_fail 376
pgmigrate_success 2298
pgpromote_anon 407
pgpromote_demoted 579
pgpromote_file 1891
pgpromote_success 2298
pgrotated 144913
pgscan_kswapd 10097
`, `numa_hint_faults 4972
numa_pages_scanned 6430
pgalloc_cxl 5807
pgdeactivate 17418
pgdemote_anon 2219
pgdemote_fail 14
pgdemote_fallback 14
pgdemote_file 3045
pgdemote_kswapd 5264
pgmigrate_fail 20
pgmigrate_success 5738
pgpromote_anon 1679
pgpromote_candidate 3624
pgpromote_demoted 2401
pgpromote_file 979
pgpromote_sampled 4972
pgpromote_success 2658
pgrotated 57696
pgscan_kswapd 10987
promote_fail_low_memory 1320
promote_fail_page_refs 6
`, `numa_hint_faults 3804
numa_pages_scanned 4751
pgalloc_cxl 307
pgdemote_far 5631
pgmigrate_fail 2
pgmigrate_success 5631
pgpromote_candidate 2890
pgpromote_far 2658
pgpromote_sampled 3804
promote_fail_low_memory 230
promote_fail_page_refs 2
`}
	wl := workload.Catalog["Cache2"](16 * 1024)
	m, err := New(Config{
		Seed: 7, Policy: core.TPP(), Workload: wl,
		Topology: tier.PresetExpander(2, 1, 1), Minutes: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if res.Failed {
		t.Fatalf("run failed: %s", res.FailReason)
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	if got := f(res.NormalizedThroughput); got != throughput {
		t.Errorf("throughput = %s, want %s", got, throughput)
	}
	if got := f(res.AvgLocalTraffic); got != local {
		t.Errorf("local traffic = %s, want %s", got, local)
	}
	if got := f(res.AvgLatencyNs); got != latency {
		t.Errorf("latency = %s, want %s", got, latency)
	}
	if got := m.Stat().Snapshot().String(); got != vmstatWant {
		t.Errorf("vmstat mismatch:\n got:\n%s want:\n%s", got, vmstatWant)
	}
	for n, want := range nodeVmstatWant {
		if got := m.Stat().NodeSnapshot(mem.NodeID(n)).String(); got != want {
			t.Errorf("node %d vmstat mismatch:\n got:\n%s want:\n%s", n, got, want)
		}
	}
	assertNodeSumsMatchGlobal(t, m)
}

// TestMultiTierCascadeTraffic asserts the expander's far tier is a live
// rung of the cascade under TPP: pages demote into it (local→near→far)
// and hot pages promote back out of it, per the vmstat counters.
func TestMultiTierCascadeTraffic(t *testing.T) {
	wl := workload.Catalog["Cache2"](8 * 1024)
	m, err := New(Config{
		Seed: 3, Policy: core.TPP(), Workload: wl,
		Topology: tier.PresetExpander(2, 1, 1), Minutes: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res := m.Run(); res.Failed {
		t.Fatalf("run failed: %s", res.FailReason)
	}
	if got := m.Stat().Get(vmstat.PgdemoteFar); got == 0 {
		t.Error("no demotions into the far tier")
	}
	if got := m.Stat().Get(vmstat.PgpromoteFar); got == 0 {
		t.Error("no promotions out of the far tier")
	}
	// And the far node really held pages at some point.
	if m.Engine().DemotedInto(2) == 0 {
		t.Error("engine counted no demotions into node 2")
	}
	if m.Engine().PromotedFrom(2) == 0 {
		t.Error("engine counted no promotions off node 2")
	}
	// Default Linux on the same machine generates no cascade traffic.
	m2, err := New(Config{
		Seed: 3, Policy: core.DefaultLinux(), Workload: workload.Catalog["Cache2"](8 * 1024),
		Topology: tier.PresetExpander(2, 1, 1), Minutes: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res := m2.Run(); res.Failed {
		t.Fatalf("default run failed: %s", res.FailReason)
	}
	if got := m2.Stat().Get(vmstat.PgmigrateSuccess); got != 0 {
		t.Errorf("Default Linux migrated %d pages", got)
	}
}

// TestSeedDeterminismGolden asserts that fixed-seed TPP runs reproduce
// the exact scalars and vmstat snapshots of the pre-refactor simulator.
func TestSeedDeterminismGolden(t *testing.T) {
	for _, g := range goldenRuns {
		g := g
		t.Run(g.wl, func(t *testing.T) {
			wl := workload.Catalog[g.wl](16 * 1024)
			m, err := New(Config{
				Seed: 7, Policy: core.TPP(), Workload: wl,
				Topology: tier.PresetCXL(2, 1), Minutes: g.minutes,
			})
			if err != nil {
				t.Fatal(err)
			}
			res := m.Run()
			if res.Failed {
				t.Fatalf("run failed: %s", res.FailReason)
			}
			f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
			if got := f(res.NormalizedThroughput); got != g.throughput {
				t.Errorf("throughput = %s, want %s", got, g.throughput)
			}
			if got := f(res.AvgLocalTraffic); got != g.local {
				t.Errorf("local traffic = %s, want %s", got, g.local)
			}
			if got := f(res.AvgLatencyNs); got != g.latency {
				t.Errorf("latency = %s, want %s", got, g.latency)
			}
			if got := m.Stat().Snapshot().String(); got != g.vmstat {
				t.Errorf("vmstat mismatch:\n got:\n%s want:\n%s", got, g.vmstat)
			}
			for n, want := range g.nodeVmstat {
				if got := m.Stat().NodeSnapshot(mem.NodeID(n)).String(); got != want {
					t.Errorf("node %d vmstat mismatch:\n got:\n%s want:\n%s", n, got, want)
				}
			}
			assertNodeSumsMatchGlobal(t, m)
		})
	}
}

// assertNodeSumsMatchGlobal checks the stats-plane contract: for every
// counter, the per-node values sum exactly to the global view. With the
// current NodeStats the global IS computed as that sum, so this guards
// the contract against future implementations (e.g. a separately
// maintained global accumulator) drifting — wrong-node *attribution*
// preserves the sum and is caught instead by the pinned per-node golden
// snapshots above and assertNodeAttribution in nodestats_test.go.
func assertNodeSumsMatchGlobal(t *testing.T, m *Machine) {
	t.Helper()
	st := m.Stat()
	var sum vmstat.Snapshot
	for n := 0; n < st.NumNodes(); n++ {
		ns := st.NodeSnapshot(mem.NodeID(n))
		for c, v := range ns {
			sum[c] += v
		}
	}
	global := st.Snapshot()
	for c := range global {
		if sum[c] != global[c] {
			t.Errorf("counter %s: sum(per-node) = %d, global = %d",
				vmstat.Counter(c), sum[c], global[c])
		}
	}
}
