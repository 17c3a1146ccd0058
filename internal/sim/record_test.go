package sim

import (
	"io"
	"math"
	"path/filepath"
	"testing"

	"tppsim/internal/core"
	"tppsim/internal/mem"
	"tppsim/internal/metrics"
	"tppsim/internal/pagetable"
	"tppsim/internal/tier"
	"tppsim/internal/trace"
	"tppsim/internal/workload"
)

// TestRecordingFailedRunIsTransparent runs machines too small for their
// workload's warm-up until they run out of memory, plain and with
// RecordTo, and checks that recording changes nothing: the failed tick,
// the fail reason, every node's vmstat counters and every figure series
// point by point. Two machines fail in a tick's workload phase, one in
// its access stream. Replaying the recorded trace, and performing the
// drawn stream through Touch inside the workload's Tick (touchStream),
// must give the plain run too; the latter holds only if a workload-phase
// failure stops the tick's access stream before it is drawn.
func TestRecordingFailedRunIsTransparent(t *testing.T) {
	const accesses = 2000
	for _, c := range []struct {
		name       string
		wl         string
		local, cxl uint64
	}{
		{"Cache1/workload-phase", "Cache1", 2000, 1000},
		{"Cache2/workload-phase", "Cache2", 2500, 500},
		{"Cache1/access-stream", "Cache1", 3000, 1000},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := func(wl workload.Workload, recordTo string) *Machine {
				m, err := New(Config{
					Seed: 1, Policy: core.DefaultLinux(), Workload: wl,
					Topology: tier.Spec{Nodes: []tier.NodeSpec{
						{Kind: mem.KindLocal, Pages: c.local},
						{Kind: mem.KindCXL, Pages: c.cxl},
					}},
					AccessesPerTick: accesses, Minutes: 5,
					RecordEveryTicks: 1, RecordTo: recordTo,
				})
				if err != nil {
					t.Fatal(err)
				}
				m.Run()
				if err := m.RecordError(); err != nil {
					t.Fatalf("recording: %v", err)
				}
				return m
			}
			profile := func() workload.Workload { return workload.Catalog[c.wl](8 << 10) }
			plain := run(profile(), "")
			if failed, _ := plain.Failed(); !failed {
				t.Fatal("the plain run did not fail; the failed-run regime is untested")
			}
			path := filepath.Join(t.TempDir(), "run.trace")
			recorded := run(profile(), path)
			tr, err := trace.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			for name, m := range map[string]*Machine{
				"recorded":   recorded,
				"replayed":   run(tr.Replayer(trace.ReplayOptions{}), ""),
				"sequential": run(&touchStream{Workload: profile(), buf: make([]pagetable.VPN, accesses)}, ""),
			} {
				assertSameRun(t, name, m, plain)
			}
		})
	}
}

// TestRecordingHugeRunIsTransparent records a huge-page run, whose flood
// charges each frame's run of accesses past the first few without
// translating them (Machine.TouchRange), and checks that the plain,
// recorded and replayed runs agree tick by tick, and that the trace
// holds one touch per flooded page: every heap page once, ascending.
// The replay performs the trace's touches one at a time.
func TestRecordingHugeRunIsTransparent(t *testing.T) {
	run := func(wl workload.Workload, recordTo string) *Machine {
		cfg := hugeTestConfig()
		cfg.RecordEveryTicks = 1
		cfg.RecordTo = recordTo
		if wl != nil {
			cfg.Workload = wl
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.Run()
		if err := m.RecordError(); err != nil {
			t.Fatalf("recording: %v", err)
		}
		if failed, why := m.Failed(); failed {
			t.Fatalf("run failed: %s", why)
		}
		return m
	}
	plain := run(nil, "")
	path := filepath.Join(t.TempDir(), "huge.trace")
	recorded := run(nil, path)
	tr, err := trace.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, "recorded", recorded, plain)
	assertSameRun(t, "replayed", run(tr.Replayer(trace.ReplayOptions{}), ""), plain)

	heap := plain.AddressSpace().RegionAt(0)
	next := heap.Start
	events := tr.Events()
	for {
		e, err := events.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if e.Op != trace.OpTouch {
			continue
		}
		if e.VPN != next {
			t.Fatalf("touch %d of the trace is VPN %d, want %d", next-heap.Start, e.VPN, next)
		}
		next++
	}
	if next != heap.End() {
		t.Fatalf("the trace holds %d touches, want one per heap page, %d", next-heap.Start, heap.Pages)
	}
}

// assertSameRun fails t unless m stopped at plain's tick for the same
// reason with the same per-node vmstat counters and figure series.
func assertSameRun(t *testing.T, name string, m, plain *Machine) {
	t.Helper()
	failed, why := m.Failed()
	pFailed, pWhy := plain.Failed()
	if m.Tick() != plain.Tick() || failed != pFailed || why != pWhy {
		t.Fatalf("%s run stopped at tick %d (%q), plain at tick %d (%q)", name, m.Tick(), why, plain.Tick(), pWhy)
	}
	got := m.NodeVmstat(nil)
	for i, sn := range plain.NodeVmstat(nil) {
		if got[i] != sn {
			t.Errorf("%s run, node %d vmstat:\n%s\nplain:\n%s", name, i, got[i].String(), sn.String())
		}
	}
	series := figureSeries(m.Results())
	for sName, s := range figureSeries(plain.Results()) {
		r := series[sName]
		i := 0
		for i < min(len(r.Y), len(s.Y)) && samePoint(r, s, i) {
			i++
		}
		if i != len(r.Y) || i != len(s.Y) {
			t.Errorf("%s run, series %s: %d points, plain %d, the first %d equal", name, sName, len(r.Y), len(s.Y), i)
		}
	}
}

// samePoint reports whether point i of a and b is bit-identical.
func samePoint(a, b *metrics.Series, i int) bool {
	return math.Float64bits(a.X[i]) == math.Float64bits(b.X[i]) &&
		math.Float64bits(a.Y[i]) == math.Float64bits(b.Y[i])
}

// figureSeries maps the name of each of r's figure series to it.
func figureSeries(r *metrics.Run) map[string]*metrics.Series {
	return map[string]*metrics.Series{
		"LocalTraffic": &r.LocalTraffic, "AvgLatency": &r.AvgLatency,
		"AllocRate": &r.AllocRate, "LocalAllocRate": &r.LocalAllocRate,
		"PromotionRate": &r.PromotionRate, "DemotionRate": &r.DemotionRate,
		"Throughput": &r.Throughput, "AnonResidency": &r.AnonResidency,
		"MigrationRate": &r.MigrationRate, "UtilTotal": &r.UtilTotal,
		"UtilAnon": &r.UtilAnon, "UtilFile": &r.UtilFile,
	}
}
