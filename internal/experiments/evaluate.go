package experiments

import (
	"fmt"

	"tppsim/internal/core"
	"tppsim/internal/metrics"
	"tppsim/internal/report"
	"tppsim/internal/sim"
	"tppsim/internal/vmstat"
)

// table1Row is one configuration of Table 1.
type table1Row struct {
	workload string
	ratio    [2]uint64
	// skipBaselines mirrors the paper's "-" cells (Warehouse is only run
	// under Default and TPP).
	skipBaselines bool
}

var table1Rows = []table1Row{
	{"Web1", [2]uint64{2, 1}, false},
	{"Cache1", [2]uint64{2, 1}, false},
	{"Cache1", [2]uint64{1, 4}, false},
	{"Cache2", [2]uint64{2, 1}, false},
	{"Cache2", [2]uint64{1, 4}, false},
	{"Warehouse", [2]uint64{2, 1}, true},
}

// Table1 regenerates the headline evaluation: normalized throughput of
// Default Linux, TPP, NUMA Balancing, and AutoTiering on every
// workload/ratio configuration.
func Table1(o Options) Result {
	o = o.withDefaults()
	t := &report.Table{
		Title:   "Table 1 — Throughput (%) normalized to the all-local baseline",
		Columns: []string{"workload (local:cxl)", "Default Linux", "TPP", "NUMA Balancing", "AutoTiering"},
	}
	for _, row := range table1Rows {
		label := fmt.Sprintf("%s (%d:%d)", row.workload, row.ratio[0], row.ratio[1])
		cells := []string{label}
		policies := core.All()
		for i, p := range policies {
			if row.skipBaselines && i >= 2 {
				cells = append(cells, "-")
				continue
			}
			_, res := run(o, p, row.workload, row.ratio)
			if res.Failed {
				cells = append(cells, "Fails")
			} else {
				cells = append(cells, report.F1(100*res.NormalizedThroughput))
			}
		}
		t.AddRow(cells...)
	}
	t.AddNote("paper: TPP within 1-5%% of baseline everywhere; Default loses up to ~18%%; AutoTiering fails at 1:4")
	return Result{ID: "Table1", Caption: "Normalized throughput", Table: t}
}

// Fig14 regenerates the local-traffic-over-time comparison: All-Local vs
// TPP vs Default Linux on the production 2:1 configuration.
func Fig14(o Options) Result {
	o = o.withDefaults()
	t := &report.Table{
		Title:   "Fig. 14 — Fraction of memory accesses served from the local node (2:1)",
		Columns: []string{"workload", "All-Local", "TPP", "Default"},
	}
	series := map[string]string{}
	for _, name := range fig9Workloads {
		_, all := run(o, core.DefaultLinux(), name, [2]uint64{1, 0})
		_, tpp := run(o, core.TPP(), name, [2]uint64{2, 1})
		_, def := run(o, core.DefaultLinux(), name, [2]uint64{2, 1})
		a, b, c := all.LocalTraffic, tpp.LocalTraffic, def.LocalTraffic
		a.Name, b.Name, c.Name = "all_local", "tpp", "default"
		series[name] = report.SeriesCSV("minute", &a, &b, &c)
		t.AddRow(name, report.Pct(all.AvgLocalTraffic), report.Pct(tpp.AvgLocalTraffic), report.Pct(def.AvgLocalTraffic))
	}
	t.AddNote("paper: TPP tracks the all-local line; Default collapses for Web1 (~22%% local)")
	return Result{ID: "Fig14", Caption: "Local traffic (2:1)", Table: t, Series: series}
}

// Fig15 regenerates the memory-constrained (1:4) local-traffic series for
// the Cache workloads.
func Fig15(o Options) Result {
	o = o.withDefaults()
	t := &report.Table{
		Title:   "Fig. 15 — Effectiveness of TPP under memory constraint (1:4)",
		Columns: []string{"workload", "All-Local", "TPP", "Default"},
	}
	series := map[string]string{}
	for _, name := range []string{"Cache1", "Cache2"} {
		_, all := run(o, core.DefaultLinux(), name, [2]uint64{1, 0})
		_, tpp := run(o, core.TPP(), name, [2]uint64{1, 4})
		_, def := run(o, core.DefaultLinux(), name, [2]uint64{1, 4})
		a, b, c := all.LocalTraffic, tpp.LocalTraffic, def.LocalTraffic
		a.Name, b.Name, c.Name = "all_local", "tpp", "default"
		series[name] = report.SeriesCSV("minute", &a, &b, &c)
		t.AddRow(name, report.Pct(all.AvgLocalTraffic), report.Pct(tpp.AvgLocalTraffic), report.Pct(def.AvgLocalTraffic))
	}
	t.AddNote("paper: Cache1 reaches ~85%% local with local DRAM only 20%% of the working set")
	return Result{ID: "Fig15", Caption: "Constrained local traffic", Table: t, Series: series}
}

// Fig16 regenerates the CXL-latency sweep: average memory-latency
// increase over all-local and throughput loss, Default vs TPP, as the
// CXL-Memory latency varies across its plausible band.
func Fig16(o Options) Result {
	o = o.withDefaults()
	t := &report.Table{
		Title:   "Fig. 16 — Cache2 (2:1) with varied CXL-Memory latency",
		Columns: []string{"CXL latency", "Default +lat (ns)", "TPP +lat (ns)", "Default loss", "TPP loss"},
	}
	var defLat, tppLat, defLoss, tppLoss metrics.Series
	defLat.Name, tppLat.Name, defLoss.Name, tppLoss.Name = "default_dlat", "tpp_dlat", "default_loss", "tpp_loss"
	for _, lat := range []float64{220, 240, 260, 280, 300} {
		// Per-node override on node 1, the CXL node — the same sweep
		// works on any topology by overriding the node under study.
		mut := func(c *sim.Config) { c.Topology.Nodes[1].LoadLatencyNs = lat }
		_, def := run(o, core.DefaultLinux(), "Cache2", [2]uint64{2, 1}, mut)
		_, tpp := run(o, core.TPP(), "Cache2", [2]uint64{2, 1}, mut)
		dl := def.AvgLatencyNs - 100
		tl := tpp.AvgLatencyNs - 100
		dLoss := 1 - def.NormalizedThroughput
		tLoss := 1 - tpp.NormalizedThroughput
		defLat.Append(lat, dl)
		tppLat.Append(lat, tl)
		defLoss.Append(lat, dLoss)
		tppLoss.Append(lat, tLoss)
		t.AddRow(fmt.Sprintf("%.0f ns", lat),
			report.F1(dl), report.F1(tl), report.Pct(dLoss), report.Pct(tLoss))
	}
	series := map[string]string{
		"latency":    report.SeriesCSV("cxl_latency_ns", &defLat, &tppLat),
		"throughput": report.SeriesCSV("cxl_latency_ns", &defLoss, &tppLoss),
	}
	t.AddNote("paper: Default's added latency grows steeply with CXL latency (up to ~7x TPP's); TPP stays nearly flat")
	return Result{ID: "Fig16", Caption: "Latency sweep", Table: t, Series: series}
}

// ensure vmstat is linked for the baseline files in this package.
var _ = vmstat.PgpromoteSuccess
