package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// metricDef declares one printed metric. BENCHMARK.json at the repository
// root declares the same names and units, with direction and bounds.
type metricDef struct{ name, unit string }

// endToEnd are measured with tracing off, on every workload.
var endToEnd = []metricDef{
	{"accesses_per_s", "1/s"},
	{"tick_us_p50", "us"},
	{"tick_us_p99", "us"},
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"bytes_per_page", "B"},
}

// perLayer come from the traced run.
var perLayer = []metricDef{
	{"sim.tick_us", "us"},
	{"sim.phase_share", "ratio"},
	{"workload.tick_us", "us"},
	{"workload.draw_us", "us"},
	{"pagetable.translate_us", "us"},
	{"sim.charge_us", "us"},
	{"reclaim.tick_us", "us"},
	{"reclaim.tick_us_p99", "us"},
	{"numab.tick_us", "us"},
	{"numab.tick_us_p99", "us"},
	{"control.tick_us", "us"},
	{"metrics.fold_us", "us"},
	{"workload.draw_ns_per_access", "ns"},
	{"pagetable.translate_ns_per_access", "ns"},
	{"migrate.ns_per_page", "ns"},
	{"series.observe_ns", "ns"},
	{"sim.new_s", "s"},
	{"sim.warm_s", "s"},
	{"go.allocs_per_tick", "count"},
	{"trace.overhead", "ratio"},
	{"alloc.pages_per_tick", "pages"},
	{"alloc.stalls_per_tick", "count"},
	{"reclaim.scanned_per_tick", "pages"},
	{"reclaim.yield", "ratio"},
	{"migrate.pages_per_tick", "pages"},
	{"migrate.fail_ratio", "ratio"},
	{"numab.hint_faults_per_tick", "count"},
	{"numab.promote_yield", "ratio"},
	{"numab.pingpong_ratio", "ratio"},
	{"tracker.pages_scanned_per_tick", "pages"},
	{"lru.rotated_per_tick", "pages"},
}

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// benchMain runs the benchmark and returns the exit code: 0 when every
// run is correct, 1 when one is not, 2 on bad arguments.
func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tppbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("workload", "all", "workload name, comma-separated names, or all")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured length in seconds at the declared tick rates")
	trace := fs.Int("trace", 0, "0 prints the end-to-end metrics, 1 runs the traced pass and prints the per-layer metrics")
	spans := fs.String("spans", "", "with -trace 1, write spans and per-tick phase columns as JSON to `file`")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 || *seed == 0 {
		fmt.Fprintln(stderr, "tppbench: -trace must be 0 or 1, -seconds positive, -seed nonzero")
		return 2
	}
	ws, err := selectWorkloads(*names)
	if err != nil {
		fmt.Fprintln(stderr, "tppbench:", err)
		return 2
	}
	p := plan{seed: *seed, seconds: *seconds, traced: *trace == 1, setups: 3, keepTicks: *spans != ""}
	var results []*result
	for _, w := range ws {
		r := run(w, p)
		printResult(stdout, r, p)
		results = append(results, r)
	}
	if *spans != "" && p.traced {
		if err := writeSpans(*spans, results); err != nil {
			fmt.Fprintln(stderr, "tppbench:", err)
			return 1
		}
	}
	summary := summarize(results, p)
	line, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintln(stderr, "tppbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !summary.Correct {
		return 1
	}
	return 0
}

func declared(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printResult writes one "<workload> <metric> <value> <unit>" line per
// metric, then "#" lines with the digest, the sweep's Table 1 rows, the
// tick counts and, traced, the tracing overhead.
func printResult(out io.Writer, r *result, p plan) {
	if r.correct() {
		for _, d := range declared(p.traced) {
			fmt.Fprintf(out, "%s %s %g %s\n", r.workload, d.name, r.values[d.name], d.unit)
		}
	}
	status := "unchecked"
	if r.checked {
		status = "checked"
	}
	fmt.Fprintf(out, "# %s digest %016x %s\n", r.workload, r.digest, status)
	for _, row := range r.table {
		fmt.Fprintf(out, "# %s table %s\n", r.workload, strings.Join(row, " | "))
	}
	fmt.Fprintf(out, "# %s %d ticks in %.3f s; timings over the fastest %d, scaled by %.4f to the nominal clock\n",
		r.workload, r.ticks, r.wallS, r.timed, r.scale)
	if p.traced && r.correct() {
		fmt.Fprintf(out, "# %s tracing overhead: %.4g accesses/s untraced, %.4g traced (%+.1f%%)\n",
			r.workload, r.untracedAPS, r.tracedAPS, 100*(r.untracedAPS/r.tracedAPS-1))
	}
	for _, why := range r.problems {
		fmt.Fprintf(out, "# %s FAILED: %s\n", r.workload, why)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summaryLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summarize folds the runs into the final JSON line. With several
// workloads each metric is keyed "<workload>/<metric>".
func summarize(results []*result, p plan) summaryLine {
	s := summaryLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range results {
		s.Correct = s.Correct && r.correct()
		s.Attempted += r.attempted
		s.Failed += r.failed
		if !r.correct() {
			continue
		}
		for _, d := range declared(p.traced) {
			key := d.name
			if len(results) > 1 {
				key = r.workload + "/" + d.name
			}
			s.Metrics[key] = metricValue{r.values[d.name], d.unit}
		}
	}
	return s
}

func writeSpans(path string, results []*result) error {
	var recs []*traceRecord
	for _, r := range results {
		if r.trace != nil {
			recs = append(recs, r.trace)
		}
	}
	data, err := json.Marshal(recs)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
