package experiments

import (
	"fmt"
	"math"

	"tppsim/internal/chameleon"
	"tppsim/internal/core"
	"tppsim/internal/mem"
	"tppsim/internal/metrics"
	"tppsim/internal/report"
	"tppsim/internal/sim"
	"tppsim/internal/workload"
)

// profileWorkload runs a workload on an all-local machine with Chameleon
// attached (the §3 methodology: characterization happens on ordinary
// production hosts, not tiered ones).
func profileWorkload(o Options, wlName string) (*sim.Machine, chameleon.Report) {
	m, _ := run(o, core.DefaultLinux(), wlName, [2]uint64{1, 0}, func(c *sim.Config) {
		c.EnableChameleon = true
		// The simulator's access stream is already a 1-in-AccessScale
		// sample of real traffic, so PEBS's 1-in-200 corresponds to
		// 1-in-2 of the stream the Collector sees.
		c.ChameleonConfig = chameleon.Config{SampleRate: 2}
	})
	return m, m.Chameleon().Report(wlName)
}

// fig7Workloads is the Fig. 7/8 application set.
var fig7Workloads = []string{"Web1", "Web2", "Cache1", "Cache2", "Warehouse", "Ads1", "Ads2", "Ads3"}

// Fig7 regenerates the page-temperature breakdown: how much of each
// application's allocated memory was accessed within the last 1/2/5/10
// minutes, and how much is colder.
func Fig7(o Options) Result {
	o = o.withDefaults()
	t := &report.Table{
		Title:   "Fig. 7 — Application memory usage over last N minutes (% of allocated)",
		Columns: []string{"workload", "1 min hot", "2 min hot", "5 min hot", "10 min hot", "cold"},
	}
	for _, name := range fig7Workloads {
		_, rep := profileWorkload(o, name)
		ov := rep.Overall
		cum1 := ov.Hot1
		cum2 := cum1 + ov.Hot2
		cum5 := cum2 + ov.Hot5
		cum10 := cum5 + ov.Hot10
		t.AddRow(name,
			report.Pct(ov.Fraction(cum1)), report.Pct(ov.Fraction(cum2)),
			report.Pct(ov.Fraction(cum5)), report.Pct(ov.Fraction(cum10)),
			report.Pct(ov.Fraction(ov.Cold)))
	}
	t.AddNote("paper: 55-80%% of allocated memory idle within any 2-minute interval")
	return Result{ID: "Fig7", Caption: "Page temperature", Table: t}
}

// Fig8 regenerates the anon-vs-file temperature split.
func Fig8(o Options) Result {
	o = o.withDefaults()
	t := &report.Table{
		Title:   "Fig. 8 — Temperature by page type (% of that type's allocation)",
		Columns: []string{"workload", "type", "1 min hot", "2 min hot", "10 min hot", "cold"},
	}
	for _, name := range fig7Workloads {
		_, rep := profileWorkload(o, name)
		for _, row := range []struct {
			label string
			ts    chameleon.TempStats
		}{
			{"anon", rep.PerType[mem.Anon]},
			{"file", merge(rep.PerType[mem.File], rep.PerType[mem.Tmpfs])},
		} {
			if row.ts.Allocated == 0 {
				continue
			}
			cum1 := row.ts.Hot1
			cum2 := cum1 + row.ts.Hot2
			cum10 := cum2 + row.ts.Hot5 + row.ts.Hot10
			t.AddRow(name, row.label,
				report.Pct(row.ts.Fraction(cum1)), report.Pct(row.ts.Fraction(cum2)),
				report.Pct(row.ts.Fraction(cum10)), report.Pct(row.ts.Fraction(row.ts.Cold)))
		}
	}
	t.AddNote("paper: a large fraction of anon pages is hot while file pages are comparatively colder")
	return Result{ID: "Fig8", Caption: "Anon vs file temperature", Table: t}
}

func merge(a, b chameleon.TempStats) chameleon.TempStats {
	return chameleon.TempStats{
		Allocated: a.Allocated + b.Allocated,
		Hot1:      a.Hot1 + b.Hot1,
		Hot2:      a.Hot2 + b.Hot2,
		Hot5:      a.Hot5 + b.Hot5,
		Hot10:     a.Hot10 + b.Hot10,
		Cold:      a.Cold + b.Cold,
	}
}

// fig9Workloads is the Fig. 9/10 subset.
var fig9Workloads = []string{"Web1", "Cache1", "Cache2", "Warehouse"}

// Fig9 regenerates the memory-usage-over-time series: total/anon/file
// utilization per workload.
func Fig9(o Options) Result {
	o = o.withDefaults()
	t := &report.Table{
		Title:   "Fig. 9 — Memory usage over time (steady-state utilization)",
		Columns: []string{"workload", "total util", "anon util", "file util"},
	}
	series := map[string]string{}
	for _, name := range fig9Workloads {
		m, res := run(o, core.DefaultLinux(), name, [2]uint64{1, 0})
		_ = m
		total, anon, file := res.UtilTotal, res.UtilAnon, res.UtilFile
		total.Name, anon.Name, file.Name = "total", "anon", "file"
		series[name] = report.SeriesCSV("minute", &total, &anon, &file)
		t.AddRow(name, report.Pct(total.Tail(0.3)), report.Pct(anon.Tail(0.3)), report.Pct(file.Tail(0.3)))
	}
	t.AddNote("paper: Web file cache decays as anon grows; Cache holds ~70-82%% file; Warehouse ~85%% anon")
	return Result{ID: "Fig9", Caption: "Usage over time", Table: t, Series: series}
}

// Fig10 regenerates the throughput-vs-utilization sensitivity scatter.
func Fig10(o Options) Result {
	o = o.withDefaults()
	t := &report.Table{
		Title:   "Fig. 10 — Throughput correlation with anon/file utilization",
		Columns: []string{"workload", "corr(throughput, anon util)", "corr(throughput, file util)"},
	}
	series := map[string]string{}
	for _, name := range fig9Workloads {
		_, res := run(o, core.DefaultLinux(), name, [2]uint64{1, 0})
		anon, file, thr := res.UtilAnon, res.UtilFile, res.Throughput
		anon.Name, file.Name, thr.Name = "anon_util", "file_util", "throughput"
		series[name] = report.SeriesCSV("minute", &anon, &file, &thr)
		t.AddRow(name,
			fmt.Sprintf("%+.2f", correlate(anon.Y, thr.Y)),
			fmt.Sprintf("%+.2f", correlate(file.Y, thr.Y)))
	}
	t.AddNote("paper: Web/Cache2/Warehouse throughput tracks anon utilization; Cache1 shows no clear relation")
	return Result{ID: "Fig10", Caption: "Sensitivity", Table: t, Series: series}
}

// correlate returns the Pearson correlation of two equal-length series
// (0 when degenerate).
func correlate(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n < 2 {
		return 0
	}
	ma, mb := metrics.Mean(a[:n]), metrics.Mean(b[:n])
	var cov, va, vb float64
	for i := 0; i < n; i++ {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / (math.Sqrt(va) * math.Sqrt(vb))
}

// Fig11 regenerates the re-access interval distribution.
func Fig11(o Options) Result {
	o = o.withDefaults()
	t := &report.Table{
		Title:   "Fig. 11 — Fraction of hot transitions by prior-cold interval",
		Columns: []string{"workload", "fresh alloc", "<=1 min", "<=2 min", "<=5 min", "<=10 min", "beyond"},
	}
	for _, name := range fig9Workloads {
		_, rep := profileWorkload(o, name)
		r := rep.Reaccess
		tot := r.Total()
		if tot == 0 {
			t.AddRow(name, "-", "-", "-", "-", "-", "-")
			continue
		}
		f := func(n uint64) string { return report.Pct(float64(n) / float64(tot)) }
		t.AddRow(name, f(r.FirstTouch), f(r.Within1), f(r.Within2), f(r.Within5), f(r.Within10), f(r.Beyond))
	}
	t.AddNote("paper: Web re-accesses ~80%% of pages within 10 minutes; Warehouse anons are mostly fresh allocations")
	return Result{ID: "Fig11", Caption: "Re-access intervals", Table: t}
}

// ensure workload import is used even if fig sets change.
var _ = workload.Names
