// Command tppsim runs one workload under one placement policy on a
// simulated CXL tiered-memory machine and prints the results: normalized
// throughput, local-traffic fraction, and the TPP observability counters
// (§5.5).
//
// Examples:
//
//	tppsim -workload Web1 -policy tpp -ratio 2:1 -minutes 60
//	tppsim -workload Cache1 -policy default -ratio 1:4 -vmstat
//	tppsim -workload Cache2 -policy all -ratio 2:1
//	tppsim -workload Cache2 -policy tpp -topology expander -vmstat
//	tppsim -list
//
// Record/replay: -record captures the run's access trace to a file
// (".gz" compresses); -replay re-drives a machine from a trace instead
// of a catalog workload, so one captured stream can be compared across
// every policy:
//
//	tppsim -workload Web1 -policy default -record web1.trace.gz
//	tppsim -replay web1.trace.gz -policy all
//	tppsim -replay web1.trace.gz -policy tpp -minutes 120 -loop
//
// Time series: -series samples every node's vmstat deltas and residency
// per tick into the columnar series plane and renders it as a flow
// table plus terminal sparklines (-sample-every sets the cadence, -csv
// dumps the full plane). -trace-stats renders the same series straight
// from a recorded trace's per-node TickEnd payload — a pure decode, no
// machine is built or re-run:
//
//	tppsim -workload Cache2 -policy tpp -series
//	tppsim -workload Cache2 -policy tpp -record c2.trace -sample-every 1
//	tppsim -trace-stats c2.trace -csv c2-series.csv
//	tppsim -trace-stats default.trace -diff tpp.trace
//
// Distributions: -latency turns on the probe plane's histograms and
// prints per-node access-latency percentiles plus the migration,
// allocstall, and reclaim-batch distributions; -phase-profile attributes
// host wall-clock per tick phase. -cpuprofile/-memprofile write real Go
// pprof profiles for cross-checking:
//
//	tppsim -workload Web1 -policy tpp -latency
//	tppsim -workload Web1 -policy all -phase-profile -cpuprofile cpu.pb.gz
//
// Sampled tracking: -tracker attaches a sampled access tracker
// (idlepage, softdirty, or damon; internal/tracker spec syntax) whose
// heatmap is reported after the run; oracle=1 scores it against exact
// access counts. The sampled policy drives all placement from the
// tracker alone. -policies and -trackers enumerate what is available:
//
//	tppsim -workload Web1 -policy tpp -tracker "idlepage:scan=8,oracle=1"
//	tppsim -workload Cache2 -policy sampled -topology expander -nodes
//	tppsim -workload Cache2 -policy sampled -tracker "damon:regions=256" -vmstat
//	tppsim -policies
//	tppsim -trackers
//
// Fault injection: -faults takes a deterministic failure schedule
// (internal/fault syntax) and prints the fault timeline after the run.
// Recording a faulted run stores the schedule in the trace header (v6),
// so replaying it reproduces the same faults:
//
//	tppsim -workload Web1 -policy tpp -topology expander -faults "offline:node=2,at=1200,until=2400" -nodes
//	tppsim -workload Web1 -policy tpp -faults "latency:node=1,at=600,until=1800,mult=3;migfail:prob=0.2,at=600,until=1800;seed=42"
//	tppsim -workload Web1 -policy tpp -faults "offline:node=1,at=600" -record faulted.trace.gz
//	tppsim -replay faulted.trace.gz -policy all
//
// Scale: -hugepages backs the machine with 2 MB huge frames over the
// extent-compressed page table — the terabyte-scale configuration —
// and -mem-stats reports the simulator's own memory footprint (extent
// count, split/merge churn, bytes per simulated resident page):
//
//	tppsim -workload Cache1 -policy tpp -hugepages -mem-stats -vmstat
//	tppsim -workload Web1 -policy tpp -mem-stats
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tppsim/internal/core"
	"tppsim/internal/fault"
	"tppsim/internal/mem"
	"tppsim/internal/metrics"
	"tppsim/internal/prof"
	"tppsim/internal/report"
	"tppsim/internal/series"
	"tppsim/internal/sim"
	"tppsim/internal/tier"
	"tppsim/internal/trace"
	"tppsim/internal/tracker"
	"tppsim/internal/workload"
)

func main() {
	var (
		wlName   = flag.String("workload", "Cache1", "workload: "+strings.Join(workload.Names(), ", "))
		policy   = flag.String("policy", "tpp", "policy: "+strings.Join(policyKeys(), ", ")+", all")
		ratio    = flag.String("ratio", "2:1", "local:CXL capacity ratio, or 1:0 for the all-local baseline")
		topoName = flag.String("topology", "", "machine topology preset: "+strings.Join(tier.PresetNames(), ", ")+
			" (default: the 2-node cxl box sized by -ratio)")
		minutes  = flag.Int("minutes", 60, "simulated minutes")
		pages    = flag.Uint64("pages", workload.DefaultTotalPages, "working-set size in 4KB pages")
		seed     = flag.Uint64("seed", 1, "random seed")
		hugeFl   = flag.Bool("hugepages", false, "back the machine with 2MB huge pages over the extent-compressed page table (the terabyte-scale configuration)")
		memStats = flag.Bool("mem-stats", false, "report the simulator's own memory footprint: extent count, split/merge totals, bytes per simulated resident page")
		vmstatFl = flag.Bool("vmstat", false, "dump /proc/vmstat-style counters (per node on multi-node machines)")
		nodesFl  = flag.Bool("nodes", false, "print the per-node residency/counter table")
		seriesFl = flag.Bool("series", false, "sample the per-tick per-node series plane and print flow table + sparklines")
		sampleEv = flag.Int("sample-every", 0, "series sampling cadence in ticks (implies sampling; default 1 when -series/-csv set)")
		csvOut   = flag.String("csv", "", "write the sampled node series as CSV to FILE (\"-\" for stdout)")
		trStats  = flag.String("trace-stats", "", "decode FILE's per-node tick payload into the series plane and render it (no machine is run)")
		diffWith = flag.String("diff", "", "with -trace-stats: decode FILE too and render a comparative per-node flow table (A=-trace-stats, B=-diff)")
		latency  = flag.Bool("latency", false, "record the probe plane's latency histograms and print the percentile table + access CDF panel")
		phaseFl  = flag.Bool("phase-profile", false, "profile host wall-clock per tick phase and print the attribution table")
		cpuProf  = flag.String("cpuprofile", "", "write a Go CPU profile to FILE")
		memProf  = flag.String("memprofile", "", "write a Go heap profile to FILE at exit")
		list     = flag.Bool("list", false, "list catalog workloads and exit")
		listPol  = flag.Bool("policies", false, "list selectable policies with descriptions and exit")
		listTrk  = flag.Bool("trackers", false, "list tracker kinds with descriptions and exit")
		trkSpec  = flag.String("tracker", "", "sampled access tracker, e.g. \"idlepage:scan=8,oracle=1\" or \"damon:regions=256\" (see internal/tracker; kinds: "+strings.Join(tracker.KindNames(), ", ")+")")
		faultsFl = flag.String("faults", "", "fault-injection schedule, e.g. \"offline:node=1,at=600,until=1200;migfail:prob=0.2,at=100;seed=42\" (see internal/fault)")
		recordTo = flag.String("record", "", "record the access trace to FILE (.gz compresses; single policy only)")
		replayF  = flag.String("replay", "", "replay a trace FILE instead of running a catalog workload")
		loop     = flag.Bool("loop", false, "with -replay: loop the trace when the run outlasts it (otherwise the machine idles)")
	)
	flag.Parse()

	// -series/-csv without an explicit cadence sample every tick.
	if (*seriesFl || *csvOut != "") && *sampleEv == 0 {
		*sampleEv = 1
	}

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Finalized on the normal return paths; error paths os.Exit and
	// drop the partial profile.
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	if *diffWith != "" && *trStats == "" {
		fmt.Fprintln(os.Stderr, "-diff only applies with -trace-stats")
		os.Exit(2)
	}

	if *trStats != "" {
		if *replayF != "" || *recordTo != "" {
			fmt.Fprintln(os.Stderr, "-trace-stats is a pure decode; it excludes -replay and -record")
			os.Exit(2)
		}
		if err := runTraceStats(*trStats, *diffWith, *sampleEv, *seriesFl, *csvOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, n := range workload.Names() {
			fmt.Println(n)
		}
		return
	}
	if *listPol {
		for _, n := range core.Registry() {
			fmt.Printf("%-12s %s\n", n.Key, n.Description)
		}
		fmt.Printf("%-12s %s\n", "all", "the Table 1 set: default, tpp, numab, autotiering")
		return
	}
	if *listTrk {
		for _, k := range tracker.KindNames() {
			fmt.Printf("%-10s %s\n", k, tracker.Describe(k))
		}
		return
	}

	trkCfg, err := tracker.ParseSpec(*trkSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var r0, r1 uint64
	if _, err := fmt.Sscanf(*ratio, "%d:%d", &r0, &r1); err != nil || r0 == 0 {
		fmt.Fprintf(os.Stderr, "bad -ratio %q (want e.g. 2:1)\n", *ratio)
		os.Exit(2)
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	var topo tier.Spec
	if *topoName != "" {
		spec, ok := tier.Preset(*topoName)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown -topology %q; have %s\n", *topoName, strings.Join(tier.PresetNames(), ", "))
			os.Exit(2)
		}
		if *topoName == tier.PresetNameCXL {
			spec = tier.PresetCXL(r0, r1)
		} else if set["ratio"] {
			fmt.Fprintf(os.Stderr, "-ratio only applies to the cxl preset; %s has fixed shares\n", *topoName)
			os.Exit(2)
		}
		topo = spec
	}

	policies, err := selectPolicies(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *recordTo != "" && len(policies) > 1 {
		fmt.Fprintln(os.Stderr, "-record needs a single policy (a trace captures one run)")
		os.Exit(2)
	}
	if *csvOut != "" && *csvOut != "-" && len(policies) > 1 {
		fmt.Fprintln(os.Stderr, "-csv FILE needs a single policy (each run would overwrite the file); use -csv - to stream all runs")
		os.Exit(2)
	}
	if *recordTo != "" && *replayF != "" {
		fmt.Fprintln(os.Stderr, "-record and -replay are mutually exclusive")
		os.Exit(2)
	}
	if *replayF != "" && (set["workload"] || set["pages"]) {
		fmt.Fprintln(os.Stderr, "-replay drives the machine from the trace; -workload/-pages would be ignored")
		os.Exit(2)
	}
	if *loop && *replayF == "" {
		fmt.Fprintln(os.Stderr, "-loop only applies with -replay")
		os.Exit(2)
	}

	var faults fault.Schedule
	if *faultsFl != "" {
		if faults, err = fault.ParseSpec(*faultsFl); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	var tr *trace.Trace
	var ctor func(uint64) workload.Workload
	if *replayF != "" {
		if tr, err = trace.Load(*replayF); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		h := tr.Header
		traceMin := (tr.Ticks() + workload.TicksPerMinute - 1) / workload.TicksPerMinute
		fmt.Printf("replaying %s: workload=%s pages=%d %d min (%d KB encoded)\n",
			*replayF, h.Name, h.TotalPages, traceMin, tr.Size()/1024)
		if len(topo.Nodes) == 0 && !set["ratio"] && h.Topology != nil {
			// No explicit sizing: rebuild the recorded machine.
			topo = *h.Topology
			fmt.Printf("  machine from trace: %s (%d nodes)\n", topo.Name, len(topo.Nodes))
		}
		if *faultsFl == "" && h.Faults != nil {
			// A v6 trace of a faulted run carries its schedule: replay it
			// too, so the replayed machine suffers the same faults.
			faults = *h.Faults
			fmt.Printf("  faults from trace: %s\n", faults.Spec())
		}
		if *trkSpec == "" && h.Tracker != "" {
			// A v7 trace carries the recorded run's tracker spec: rebuild
			// the same observation plane unless -tracker overrides it.
			if trkCfg, err = tracker.ParseSpec(h.Tracker); err != nil {
				fmt.Fprintf(os.Stderr, "trace tracker spec: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("  tracker from trace: %s\n", h.Tracker)
		}
		if !set["minutes"] && uint64(*minutes) > traceMin {
			// Without an explicit -minutes, replay exactly the trace.
			*minutes = int(traceMin)
		} else if uint64(*minutes) > traceMin && !*loop {
			fmt.Fprintf(os.Stderr, "warning: run (%d min) outlasts the trace (%d min); the machine idles after it ends — use -loop to wrap\n",
				*minutes, traceMin)
		}
	} else {
		var ok bool
		if ctor, ok = workload.Catalog[*wlName]; !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q; have %s\n", *wlName, strings.Join(workload.Names(), ", "))
			os.Exit(2)
		}
	}

	for _, p := range policies {
		cfg := sim.Config{
			Seed:             *seed,
			Policy:           p,
			HugePages:        *hugeFl,
			Minutes:          *minutes,
			RecordTo:         *recordTo,
			SampleEveryTicks: *sampleEv,
			ProbeLatency:     *latency,
			ProbePhases:      *phaseFl,
			Faults:           faults,
			Tracker:          trkCfg,
		}
		if len(topo.Nodes) > 0 {
			cfg.Topology = topo
		} else {
			cfg.Ratio = [2]uint64{r0, r1}
		}
		if tr != nil {
			cfg.Workload = tr.Replayer(trace.ReplayOptions{Loop: *loop})
		} else {
			cfg.Workload = ctor(*pages)
		}
		m, err := sim.New(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		res := m.Run()
		fmt.Println(res.String())
		if *memStats {
			fmt.Print(memStatsLine(res))
		}
		if err := m.RecordError(); err != nil {
			fmt.Fprintf(os.Stderr, "recording trace: %v\n", err)
			os.Exit(1)
		}
		if *nodesFl {
			fmt.Print(report.NodeTable(res).String())
		}
		if ft := report.FaultTimeline(res); ft != nil {
			fmt.Print(ft.String())
		}
		if ts := report.TrackerSummary(res); ts != nil {
			fmt.Print(ts.String())
			fmt.Print(report.TrackerHeatPanel(res, 60))
		}
		if *vmstatFl {
			st := m.Stat()
			fmt.Print(indent(st.Snapshot().String()))
			if st.NumNodes() > 1 {
				for n := 0; n < st.NumNodes(); n++ {
					fmt.Printf("  node%d:\n", n)
					fmt.Print(indent(indent(st.NodeSnapshot(mem.NodeID(n)).String())))
				}
			}
		}
		if res.LatencyHist != nil {
			labels := report.NodeLabels(res.Nodes, len(res.LatencyHist.Access))
			fmt.Print(report.PercentileTable(res.LatencyHist, labels).String())
			total := res.LatencyHist.TotalAccess()
			fmt.Print(report.HistogramPanel(&total, "access latency (all nodes)", nil))
		}
		if res.PhaseProfile != nil {
			fmt.Print(report.PhaseTable(res.PhaseProfile).String())
		}
		if res.NodeSeries != nil {
			labels := report.NodeLabels(res.Nodes, res.NodeSeries.Nodes())
			if *seriesFl {
				printSeries(res.NodeSeries, labels)
			}
			if *csvOut != "" {
				if err := writeCSV(*csvOut, res.NodeSeries, labels); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			}
		}
	}
}

// memStatsLine renders the simulator's own end-of-run memory footprint
// (-mem-stats): how many bytes of simulator state each simulated
// resident base page cost, and the extent table's shape and churn.
func memStatsLine(res *metrics.Run) string {
	ms := res.MemStats
	return fmt.Sprintf("  mem-stats: %.3f sim bytes/page (table %s + store %s over %d resident pages), frame=%dp, extents=%d (splits=%d merges=%d)\n",
		ms.BytesPerPage, sizeKB(ms.TableBytes), sizeKB(ms.StoreBytes),
		ms.ResidentPages, ms.FramePages, ms.Extents, ms.Splits, ms.Merges)
}

// sizeKB renders a byte count with a compact unit.
func sizeKB(b uint64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}

// printSeries renders the sampled plane for a terminal: a flow table
// rebinned to at most 20 windows plus full-resolution sparklines.
func printSeries(s *series.Series, labels []string) {
	fmt.Print(report.FlowTable(s.Rebin(20), labels).String())
	fmt.Print(report.SeriesPanel(s, labels))
}

// writeCSV dumps the full sampled plane ("-" writes to stdout).
func writeCSV(path string, s *series.Series, labels []string) error {
	csv := report.SeriesColumnsCSV(s, labels)
	if path == "-" {
		fmt.Print(csv)
		return nil
	}
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		return err
	}
	fmt.Printf("  series: %d windows x %d ticks -> %s\n", s.Len(), s.Cadence(), path)
	return nil
}

// runTraceStats decodes a recorded trace's per-node tick payload into
// the series plane and renders it — the trace-analysis path: no
// machine, no policy, one pass over the encoded stream. With diffPath
// set, a second trace is decoded the same way and the two runs render
// as one comparative flow table instead.
func runTraceStats(path, diffPath string, sampleEvery int, printPanel bool, csvPath string) error {
	tr, err := trace.Load(path)
	if err != nil {
		return err
	}
	if sampleEvery == 0 {
		sampleEvery = 1
	}
	s, err := tr.Stats(trace.StatsOptions{SampleEvery: uint64(sampleEvery)})
	if err != nil {
		return err
	}
	h := tr.Header
	fmt.Printf("%s: workload=%s format v%d, %d nodes, %d windows x %d ticks (levels: %v)\n",
		path, h.Name, h.Version, s.Nodes(), s.Len(), s.Cadence(), s.HasLevels())
	var labels []string
	if h.Topology != nil && len(h.Topology.Nodes) == s.Nodes() {
		labels = make([]string, s.Nodes())
		for i, n := range h.Topology.Nodes {
			labels[i] = fmt.Sprintf("n%d %s", i, n.Kind)
		}
	}
	if diffPath != "" {
		trB, err := trace.Load(diffPath)
		if err != nil {
			return err
		}
		sB, err := trB.Stats(trace.StatsOptions{SampleEvery: uint64(sampleEvery)})
		if err != nil {
			return err
		}
		fmt.Printf("%s: workload=%s format v%d, %d nodes, %d windows x %d ticks (levels: %v)\n",
			diffPath, trB.Header.Name, trB.Header.Version, sB.Nodes(), sB.Len(), sB.Cadence(), sB.HasLevels())
		t, err := report.FlowDiffTable(s, sB, labels)
		if err != nil {
			return err
		}
		fmt.Printf("A = %s, B = %s\n", path, diffPath)
		fmt.Print(t.String())
		return nil
	}
	fmt.Print(report.FlowTable(s.Rebin(20), labels).String())
	if printPanel {
		fmt.Print(report.SeriesPanel(s, labels))
	}
	if csvPath != "" {
		return writeCSV(csvPath, s, labels)
	}
	return nil
}

// policyKeys returns the registry keys for the -policy usage line.
func policyKeys() []string {
	reg := core.Registry()
	keys := make([]string, len(reg))
	for i, n := range reg {
		keys[i] = n.Key
	}
	return keys
}

func selectPolicies(name string) ([]core.Policy, error) {
	name = strings.ToLower(name)
	if name == "all" {
		return core.All(), nil
	}
	for _, n := range core.Registry() {
		if n.Key == name {
			return []core.Policy{n.New()}, nil
		}
	}
	return nil, fmt.Errorf("unknown policy %q (have %s, all)", name, strings.Join(policyKeys(), ", "))
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = "    " + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}
