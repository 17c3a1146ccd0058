package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"tppsim/internal/core"
	"tppsim/internal/report"
)

func TestRegistryIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Registry() {
		if seen[s.ID] {
			t.Fatalf("duplicate experiment ID %s", s.ID)
		}
		seen[s.ID] = true
	}
	if len(seen) != 28 {
		t.Fatalf("registry has %d experiments, want 28", len(seen))
	}
}

func TestFind(t *testing.T) {
	if _, ok := Find("Table1"); !ok {
		t.Fatal("Table1 not found")
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("bogus ID found")
	}
	if len(IDs()) != len(Registry()) {
		t.Fatal("IDs length mismatch")
	}
}

func TestStaticExperiments(t *testing.T) {
	for _, id := range []string{"Fig2", "Fig3", "Fig4", "Fig5"} {
		spec, _ := Find(id)
		res := spec.Run(Options{})
		if res.ID != id {
			t.Errorf("%s: result ID %q", id, res.ID)
		}
		if len(res.Table.Rows) == 0 {
			t.Errorf("%s: empty table", id)
		}
	}
}

func TestFig3TrendIncreasing(t *testing.T) {
	res := Fig3(Options{})
	first := res.Table.Rows[0]
	last := res.Table.Rows[len(res.Table.Rows)-1]
	// Memory share must grow across generations (the motivation trend).
	if !(first[1] < last[1] && first[2] < last[2]) {
		t.Fatalf("memory share not increasing: first=%v last=%v", first, last)
	}
}

func TestX2ShowsLargeSpeedup(t *testing.T) {
	res := X2(Options{})
	if len(res.Table.Rows) != 2 {
		t.Fatalf("X2 rows: %v", res.Table.Rows)
	}
	speedup := res.Table.Rows[1][2]
	if !strings.HasSuffix(speedup, "x") {
		t.Fatalf("speedup cell %q", speedup)
	}
	// Must be at least an order of magnitude.
	if strings.TrimSuffix(speedup, "x") < "10" && len(strings.TrimSuffix(speedup, "x")) < 2 {
		t.Fatalf("speedup too small: %s", speedup)
	}
}

// TestQuickEndToEnd runs representative dynamic experiments at reduced
// scale and sanity-checks the expected shapes.
func TestQuickEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("slow integration test")
	}
	o := Options{Pages: 8 * 1024, Minutes: 20}

	res := Fig18(o)
	// Instant promotion must promote more than the active-LRU filter.
	if len(res.Table.Rows) < 2 {
		t.Fatal("Fig18 incomplete")
	}

	res = Table2(o)
	if len(res.Table.Rows) != 3 {
		t.Fatalf("Table2 rows = %d", len(res.Table.Rows))
	}

	res = Fig16(Options{Pages: 8 * 1024, Minutes: 15})
	if len(res.Table.Rows) != 5 {
		t.Fatalf("Fig16 rows = %d", len(res.Table.Rows))
	}
	if _, ok := res.Series["latency"]; !ok {
		t.Fatal("Fig16 missing latency series")
	}

	res = MT1(Options{Pages: 8 * 1024, Minutes: 15})
	if len(res.Table.Rows) != 3 {
		t.Fatalf("MT1 rows = %d", len(res.Table.Rows))
	}
	// The expander row must show live cascade traffic under TPP.
	far := res.Table.Rows[2]
	if far[3] == "0" || far[4] == "0" {
		t.Fatalf("MT1 expander row shows no far-tier traffic: %v", far)
	}
	if _, ok := res.Series["throughput"]; !ok {
		t.Fatal("MT1 missing throughput series")
	}
}

// TestOptionsValidate checks that Validate accepts the defaults and the
// quick options, and names the problem for a negative run length and
// for a working set too small for a workload's regions.
func TestOptionsValidate(t *testing.T) {
	for _, o := range []Options{{}, Quick()} {
		if err := o.Validate(); err != nil {
			t.Errorf("%+v: %v", o, err)
		}
	}
	for _, c := range []struct {
		o    Options
		want string
	}{
		{Options{Minutes: -5}, "Minutes"},
		{Options{Pages: 5}, "0 pages"},
	} {
		if err := c.o.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: Validate() = %v, want an error containing %q", c.o, err, c.want)
		}
	}
}

// TestRunAll checks the concurrent runner on a few small machines: one
// worker and three return identical results in spec order (the first
// spec runs longest, so with three workers it finishes last), and a spec
// that panics re-panics out of RunAll with its ID. It runs under -short
// so the race detector covers the runner.
func TestRunAll(t *testing.T) {
	machine := func(id, wl string, minutes int) Spec {
		return Spec{ID: id, Run: func(o Options) Result {
			o.Minutes = minutes
			m, r := run(o, core.TPP(), wl, [2]uint64{2, 1})
			tb := &report.Table{Title: id}
			tb.AddRow(fmt.Sprint(r.NormalizedThroughput), fmt.Sprint(r.AvgLatencyNs), fmt.Sprint(m.Stat().Snapshot()))
			return Result{ID: id, Table: tb}
		}}
	}
	specs := []Spec{
		machine("a", "Cache1", 4),
		machine("b", "Web1", 3),
		machine("c", "Cache2", 2),
		machine("d", "Warehouse", 1),
	}
	o := Options{Pages: 2048, Seed: 3}
	serial, pooled := RunAll(specs, o, 1), RunAll(specs, o, 3)
	for i, s := range specs {
		if serial[i].ID != s.ID || pooled[i].ID != s.ID {
			t.Errorf("result %d: IDs %q (1 worker) and %q (3 workers), want %q", i, serial[i].ID, pooled[i].ID, s.ID)
		}
	}
	if !reflect.DeepEqual(serial, pooled) {
		t.Error("RunAll results differ between 1 and 3 workers")
	}

	boom := Spec{ID: "boom", Run: func(Options) Result { panic("bad spec") }}
	for _, workers := range []int{1, 3} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "experiment boom: bad spec") {
					t.Errorf("workers=%d: RunAll panicked with %q, want one naming experiment boom", workers, msg)
				}
			}()
			RunAll([]Spec{specs[3], boom, specs[2]}, o, workers)
		}()
	}
}
