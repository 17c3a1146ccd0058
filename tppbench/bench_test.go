package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"tppsim"
)

// tiny runs every workload at a few dozen ticks per leg, with two short
// set-ups, so the whole file stays in the tier-1 time budget.
func tiny(seed uint64, traced bool) plan {
	return plan{seed: seed, seconds: 0.01, traced: traced, setups: 2, warmCap: 20}
}

// simulated are the printed metrics that count simulated work or a
// simulator size, so they repeat exactly for a seed.
var simulated = []string{
	"bytes_per_page",
	"alloc.pages_per_tick", "alloc.stalls_per_tick",
	"reclaim.scanned_per_tick", "reclaim.yield",
	"migrate.pages_per_tick", "migrate.fail_ratio",
	"numab.hint_faults_per_tick", "numab.promote_yield", "numab.pingpong_ratio",
	"tracker.pages_scanned_per_tick", "lru.rotated_per_tick",
}

func TestRunsRepeatForASeed(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			a, b := run(w, tiny(3, traced)), run(w, tiny(3, traced))
			for _, r := range []*result{a, b} {
				if !r.correct() || r.attempted == 0 || r.failed != 0 {
					t.Fatalf("%s traced=%v: attempted %d, failed %d: %v", w.name, traced, r.attempted, r.failed, r.problems)
				}
			}
			if a.digest != b.digest || a.attempted != b.attempted {
				t.Errorf("%s traced=%v: digests %016x/%016x over %d/%d ticks", w.name, traced, a.digest, b.digest, a.attempted, b.attempted)
			}
			for _, name := range simulated {
				if va, ok := a.values[name]; ok && va != b.values[name] {
					t.Errorf("%s traced=%v: %s is %v then %v", w.name, traced, name, va, b.values[name])
				}
			}
		}
	}
}

func TestSeedChangesTheRun(t *testing.T) {
	w := findWorkload("steady-small")
	if a, b := run(w, tiny(1, false)), run(w, tiny(2, false)); a.digest == b.digest {
		t.Fatalf("seeds 1 and 2 reached the same digest %016x", a.digest)
	}
}

// The sweep is Table 1 stepped by the benchmark: its rows must be the
// ones the experiments registry renders for the same options.
func TestSweepIsTable1(t *testing.T) {
	r := run(findWorkload("table1-sweep"), tiny(1, false))
	if !r.correct() {
		t.Fatal(r.problems)
	}
	for _, spec := range tppsim.Experiments() {
		if spec.ID == "Table1" {
			want := spec.Run(tppsim.ExperimentOptions{Pages: table1Pages, Minutes: 1, Seed: 1}).Table.Rows
			if !reflect.DeepEqual(r.table, want) {
				t.Fatalf("sweep rows\n%q\nTable 1 rows\n%q", r.table, want)
			}
			return
		}
	}
	t.Fatal("no Table1 experiment")
}

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONDeclaresTheWorkloadsAndMetrics(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if d := findWorkload(w.Name); d == nil || d.why != w.Why {
			t.Errorf("workload %q: BENCHMARK.json gives why %q", w.Name, w.Why)
		}
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		var got []metricDef
		for _, m := range c.json {
			got = append(got, metricDef{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(got, c.defs) {
			t.Errorf("BENCHMARK.json declares\n%v\nthe benchmark prints\n%v", got, c.defs)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestPrintedMetricsAreDeclared(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, c := range []struct {
		trace    string
		declared []struct{ Name, Unit string }
	}{{"0", b.EndToEnd}, {"1", b.PerLayer}} {
		units := map[string]string{}
		for _, m := range c.declared {
			units[m.Name] = m.Unit
		}
		var out, errs bytes.Buffer
		args := []string{"-workload", "steady-small", "-seed", "5", "-seconds", "0.01", "-trace", c.trace}
		if code := benchMain(args, &out, &errs); code != 0 {
			t.Fatalf("trace %s: exit %d: %s%s", c.trace, code, out.String(), errs.String())
		}
		var last string
		printed := map[string]bool{}
		sc := bufio.NewScanner(&out)
		for sc.Scan() {
			last = sc.Text()
			f := strings.Fields(last)
			if strings.HasPrefix(last, "#") || strings.HasPrefix(last, "{") {
				continue
			}
			if len(f) != 4 || f[0] != "steady-small" || !metricName.MatchString(f[1]) || units[f[1]] != f[3] {
				t.Errorf("trace %s: line %q is not a declared metric", c.trace, last)
			}
			printed[f[1]] = true
		}
		var s summaryLine
		if err := json.Unmarshal([]byte(last), &s); err != nil {
			t.Fatalf("trace %s: last line %q: %v", c.trace, last, err)
		}
		if !s.Correct || s.Attempted < 1 || s.Failed != 0 || len(s.Metrics) != len(units) || len(printed) != len(units) {
			t.Errorf("trace %s: summary %+v, %d metric lines, %d declared", c.trace, s, len(printed), len(units))
		}
		for name, m := range s.Metrics {
			if units[name] != m.Unit {
				t.Errorf("trace %s: JSON metric %q unit %q is not declared", c.trace, name, m.Unit)
			}
		}
	}
}

func TestUnknownWorkloadIsAnError(t *testing.T) {
	if _, err := selectWorkloads("steady-small,nope"); err == nil {
		t.Fatal("selectWorkloads accepted an unknown name")
	}
	var out, errs bytes.Buffer
	if code := benchMain([]string{"-workload", "nope"}, &out, &errs); code != 2 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}
