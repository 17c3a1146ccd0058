package experiments

import (
	"fmt"

	"tppsim/internal/core"
	"tppsim/internal/lru"
	"tppsim/internal/mem"
	"tppsim/internal/migrate"
	"tppsim/internal/pagetable"
	"tppsim/internal/reclaim"
	"tppsim/internal/report"
	"tppsim/internal/swap"
	"tppsim/internal/tier"
	"tppsim/internal/vmstat"
	"tppsim/internal/workload"
	"tppsim/internal/xrand"
)

// Fig19 regenerates the head-to-head against the existing page-placement
// mechanisms: local-traffic series for TPP, NUMA Balancing, and
// AutoTiering on Web1 (2:1) and Cache1 (1:4).
func Fig19(o Options) Result {
	o = o.withDefaults()
	t := &report.Table{
		Title:   "Fig. 19 — TPP vs NUMA Balancing vs AutoTiering (local traffic)",
		Columns: []string{"scenario", "TPP", "NUMA Balancing", "AutoTiering"},
	}
	series := map[string]string{}
	scenarios := []struct {
		wl    string
		ratio [2]uint64
	}{
		{"Web1", [2]uint64{2, 1}},
		{"Cache1", [2]uint64{1, 4}},
	}
	for _, sc := range scenarios {
		_, tpp := run(o, core.TPP(), sc.wl, sc.ratio)
		_, nb := run(o, core.NUMABalancing(), sc.wl, sc.ratio)
		_, at := run(o, core.AutoTiering(), sc.wl, sc.ratio)
		label := fmt.Sprintf("%s (%d:%d)", sc.wl, sc.ratio[0], sc.ratio[1])
		atCell := report.Pct(at.AvgLocalTraffic)
		if at.Failed {
			atCell = "Fails"
		}
		t.AddRow(label, report.Pct(tpp.AvgLocalTraffic), report.Pct(nb.AvgLocalTraffic), atCell)
		a, b, c := tpp.LocalTraffic, nb.LocalTraffic, at.LocalTraffic
		a.Name, b.Name, c.Name = "tpp", "numa_balancing", "autotiering"
		series[label] = report.SeriesCSV("minute", &a, &b, &c)
	}
	t.AddNote("paper: NUMA Balancing stalls when the local node is low; AutoTiering cannot run at 1:4")
	return Result{ID: "Fig19", Caption: "Baseline comparison", Table: t, Series: series}
}

// Table3 regenerates "TMO enhances TPP": running TMO's proactive
// reclamation above TPP frees headroom, so TPP's migrations fail less and
// even less traffic hits the CXL node.
func Table3(o Options) Result {
	o = o.withDefaults()
	mTPP, rTPP := run(o, core.TPP(), "Web1", [2]uint64{2, 1})
	mBoth, rBoth := run(o, core.TPP(core.WithTMO()), "Web1", [2]uint64{2, 1})

	secs := float64(o.Minutes) * 60
	failRate := func(m interface{ Stat() *vmstat.NodeStats }) float64 {
		return float64(m.Stat().Get(vmstat.PgmigrateFail)) / secs
	}
	t := &report.Table{
		Title:   "Table 3 — TMO enhances TPP (Web1, 2:1)",
		Columns: []string{"metric", "TPP-only", "TPP with TMO"},
	}
	t.AddRow("migration failure rate (pages/sec)",
		fmt.Sprintf("%.2f", failRate(mTPP)), fmt.Sprintf("%.2f", failRate(mBoth)))
	t.AddRow("CXL-node memory traffic",
		report.Pct(1-rTPP.AvgLocalTraffic), report.Pct(1-rBoth.AvgLocalTraffic))
	t.AddNote("paper: failure rate 20 -> 5 pages/sec; CXL traffic 3.1%% -> 2.7%%")
	return Result{ID: "Table3", Caption: "TMO enhances TPP", Table: t}
}

// Table4 regenerates "TPP enhances TMO": with TPP underneath, TMO's
// reclaim becomes a two-stage demote-then-swap pipeline, cutting process
// stall and increasing the memory it can save.
func Table4(o Options) Result {
	o = o.withDefaults()
	mSolo, _ := run(o, core.TMOOnly(), "Web1", [2]uint64{2, 1})
	mBoth, _ := run(o, core.TPP(core.WithTMO()), "Web1", [2]uint64{2, 1})

	t := &report.Table{
		Title:   "Table 4 — TPP enhances TMO (Web1, 2:1)",
		Columns: []string{"metric", "TMO-only", "TMO with TPP"},
	}
	soloCtl, bothCtl := mSolo.TMO(), mBoth.TMO()
	target := soloCtl.Config().TargetStall
	t.AddRow("process stall (normalized to threshold)",
		report.Pct(soloCtl.AvgStall()/target), report.Pct(bothCtl.AvgStall()/target))
	total := float64(mSolo.Topology().TotalCapacity())
	totalBoth := float64(mBoth.Topology().TotalCapacity())
	t.AddRow("memory saving (% of total capacity)",
		report.Pct(soloCtl.SavedPages()/total), report.Pct(bothCtl.SavedPages()/totalBoth))
	t.AddNote("paper: stall 70%% -> 40%% of threshold; saving 13.5%% -> 16.5%% of capacity")
	return Result{ID: "Table4", Caption: "TPP enhances TMO", Table: t}
}

// X2 measures the §5.1 claim directly with a microbenchmark: how fast can
// each reclaim flavour free a pressured local node? Migration-based
// demotion versus default reclaim over dirty file pages.
func X2(o Options) Result {
	o = o.withDefaults()
	pagesFreedPerTick := func(demotion bool) float64 {
		topo, err := tier.Spec{Nodes: []tier.NodeSpec{
			{Kind: mem.KindLocal, Pages: 20000},
			{Kind: mem.KindCXL, Pages: 40000},
		}}.Build(0, 0)
		if err != nil {
			panic(err)
		}
		store := mem.NewStore(60000)
		vecs := []*lru.Vec{lru.NewVec(store), lru.NewVec(store)}
		stat := vmstat.NewNodeStats(topo.NumNodes())
		eng := migrate.NewEngine(migrate.Config{RefsFailProb: -1}, store, topo, vecs, stat, xrand.New(1))
		as := pagetable.New(1)
		var sd *swap.Device // no swap: matches the evaluation machines
		d := reclaim.New(reclaim.Config{DemotionEnabled: demotion, Decoupled: demotion},
			store, topo, vecs, stat, eng, sd, as)
		// Fill the local node with cold dirty file pages.
		r := as.Mmap(20000, mem.File)
		local := topo.Node(0)
		for i := uint64(0); local.Free() > 0; i++ {
			local.Acquire(mem.File)
			pfn := store.Alloc(mem.File, 0)
			pg := store.Page(pfn)
			pg.Flags = pg.Flags.Set(mem.PGDirty)
			vecs[0].Add(pfn, false)
			as.MapPage(r.Start+pagetable.VPN(i), pfn)
		}
		// Measure the first pressured tick, before the daemon reaches its
		// stop watermark — the paper's "how fast can reclaim free the
		// node" question.
		before := local.Free()
		d.Wake(0)
		d.Tick()
		return float64(local.Free() - before)
	}
	demote := pagesFreedPerTick(true)
	dflt := pagesFreedPerTick(false)
	t := &report.Table{
		Title:   "X2 — Reclaim speed under pressure: migration vs default reclaim",
		Columns: []string{"mechanism", "pages freed in one tick", "speedup"},
	}
	t.AddRow("default reclaim (writeback+drop)", report.F1(dflt), "1.0x")
	t.AddRow("TPP demotion (migration)", report.F1(demote), fmt.Sprintf("%.0fx", safeDiv(demote, dflt)))
	t.AddNote("paper: migration is orders of magnitude faster; Default was 44x slower freeing the local node for Web1")
	return Result{ID: "X2", Caption: "Reclaim speed", Table: t}
}

// X3 checks the §7 claim that steady-state migration traffic is tiny
// compared with link bandwidth.
func X3(o Options) Result {
	o = o.withDefaults()
	t := &report.Table{
		Title:   "X3 — Steady-state migration bandwidth under TPP",
		Columns: []string{"workload (ratio)", "migration MB/s (tail mean)", "CXL x16 link"},
	}
	for _, sc := range []struct {
		wl    string
		ratio [2]uint64
	}{
		{"Cache1", [2]uint64{2, 1}},
		{"Cache2", [2]uint64{2, 1}},
	} {
		_, res := run(o, core.TPP(), sc.wl, sc.ratio)
		t.AddRow(fmt.Sprintf("%s (%d:%d)", sc.wl, sc.ratio[0], sc.ratio[1]),
			fmt.Sprintf("%.3f", res.MigrationRate.Tail(0.5)),
			fmt.Sprintf("%.0f MB/s", tier.CXLx16BandwidthMBps))
	}
	t.AddNote("paper: 4-16 MB/s in steady state, far below link bandwidth (values here are at simulator scale)")
	return Result{ID: "X3", Caption: "Migration bandwidth", Table: t}
}

var _ = workload.Names
