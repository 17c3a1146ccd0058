package sim

import (
	"reflect"
	"testing"

	"tppsim/internal/core"
	"tppsim/internal/mem"
	"tppsim/internal/metrics"
	"tppsim/internal/pagetable"
	"tppsim/internal/tier"
	"tppsim/internal/vmstat"
	"tppsim/internal/workload"
)

// pageTouches is the reference for Machine.TouchRange: it runs the
// wrapped workload against a ctx that performs each range as per-page
// Touch calls. It forwards DirtyModel.
type pageTouches struct{ workload.Workload }

func (w pageTouches) Start(ctx workload.Ctx) { w.Workload.Start(pageCtx{ctx}) }

func (w pageTouches) Tick(ctx workload.Ctx, tick uint64) { w.Workload.Tick(pageCtx{ctx}, tick) }

func (w pageTouches) DirtyProb(r pagetable.Region) float64 {
	if dm, ok := w.Workload.(workload.DirtyModel); ok {
		return dm.DirtyProb(r)
	}
	return 0
}

type pageCtx struct{ workload.Ctx }

func (c pageCtx) TouchRange(start pagetable.VPN, n uint64) {
	for i := uint64(0); i < n; i++ {
		c.Touch(start + pagetable.VPN(i))
	}
}

// TestHugeTouchRangeMatchesTouches pins Machine.TouchRange to per-page
// Touch calls (pageTouches) wherever charging the rest of a frame from
// one translation could diverge: reclaim demoting frames while the
// flood runs; each per-access observer alone (the latency histograms,
// the tracker plane's oracle, AutoTiering's access counts, Chameleon's
// sampler), which must see every access; a flood that is not a frame
// multiple, so each tick's range starts mid-frame on a frame mapped,
// LRU-hot and (with every frame sampled each tick) hinted a tick
// earlier; the dense table under
// direct reclaim; and a run out of memory part-way through one flood's
// range, with a second flood's range still to run on the failed
// machine. Every tick is recorded, so the figure series compare each
// tick's latency sum and access counts, and the page stores must end
// identical.
func TestHugeTouchRangeMatchesTouches(t *testing.T) {
	const fp = mem.HugeFramePages
	huge := func(mut func(*Config)) func() Config {
		return func() Config {
			cfg := hugeTestConfig()
			cfg.RecordEveryTicks = 1
			if mut != nil {
				mut(&cfg)
			}
			return cfg
		}
	}
	for _, c := range []struct {
		name string
		cfg  func() Config
		// check fails the test unless the run exercised its case.
		check func(m *Machine) string
	}{
		{"huge/reclaim", huge(nil), func(m *Machine) string {
			if m.Stat().Get(vmstat.PgdemoteKswapd)+m.Stat().Get(vmstat.PgdemoteDirect) == 0 {
				return "no frame was demoted"
			}
			return ""
		}},
		{"huge/latency-histograms", huge(func(cfg *Config) { cfg.ProbeLatency = true }), nil},
		{"huge/idlepage-oracle", huge(func(cfg *Config) {
			// The oracle counts each access in windows of one tick, and
			// ranges start mid-frame on frames a tick old.
			cfg.Tracker.Kind = "idlepage"
			cfg.Tracker.Oracle = true
			cfg.Tracker.ScanEveryTicks = 1
			cfg.Workload.(*workload.Profile).Specs[0].PrefaultPerTick = 3*fp + 100
			cfg.AccessesPerTick = 64
		}), nil},
		{"huge/autotiering", huge(func(cfg *Config) { cfg.Policy = core.AutoTiering() }), nil},
		{"huge/chameleon", huge(func(cfg *Config) { cfg.EnableChameleon = true }), nil},
		{"huge/mid-frame", huge(func(cfg *Config) {
			cfg.Workload.(*workload.Profile).Specs[0].PrefaultPerTick = 3*fp + 100
			cfg.Policy.NUMAB.CXLOnly = false
			cfg.Policy.NUMAB.ScanPeriodTicks = 1
			cfg.Policy.NUMAB.ScanSizePages = 1 << 30
			// Few sampled accesses, so a hint a range skipped would
			// mostly wait past the tick for one.
			cfg.AccessesPerTick = 64
		}), func(m *Machine) string {
			if m.Stat().Get(vmstat.NumaHintFaults) == 0 {
				return "no hint fault was taken"
			}
			return ""
		}},
		{"dense/Web1-direct-reclaim", func() Config {
			return Config{
				Seed: 11, Policy: core.DefaultLinux(),
				Workload: workload.Catalog["Web1"](16 * 1024),
				Topology: cxlPages(6000, 4000, false), Minutes: 8,
				RecordEveryTicks: 1,
			}
		}, func(m *Machine) string {
			if m.Stat().Get(vmstat.PgallocStall) == 0 {
				return "no direct reclaim"
			}
			return ""
		}},
		{"huge/oom", huge(func(cfg *Config) {
			cfg.Workload = &workload.Profile{
				PName:  "HugeFloods",
				TM:     metrics.ThroughputModel{CPUServiceNs: 400, StallsPerOp: 1},
				Warmup: 60,
				Specs: []workload.RegionSpec{
					{Name: "a", Type: mem.Anon, Pages: 160 * fp, Weight: 1, PrefaultPerTick: 2*fp + 337},
					{Name: "b", Type: mem.Anon, Pages: 20 * fp, Weight: 1, PrefaultPerTick: 177},
				},
			}
			// Sized so the fault that runs out of memory is a's.
			cfg.Topology = cxlPages(48*fp, 23*fp, true)
		}), func(m *Machine) string {
			if failed, why := m.Failed(); !failed || m.Tick() >= 60 {
				return "the flood did not run out of memory: " + why
			}
			return ""
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := func(cfg Config) *Machine {
				m, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				m.Run()
				return m
			}
			m := run(c.cfg())
			ref := c.cfg()
			ref.Workload = pageTouches{ref.Workload}
			want := run(ref)
			if c.check != nil {
				if why := c.check(want); why != "" {
					t.Fatalf("the case is untested: %s", why)
				}
			}
			assertSameRun(t, "TouchRange", m, want)
			got, exp := m.Results(), want.Results()
			if !reflect.DeepEqual(got.LatencyHist, exp.LatencyHist) {
				t.Error("TouchRange run's latency histograms differ from per-page touches'")
			}
			if !reflect.DeepEqual(got.Tracker, exp.Tracker) {
				t.Errorf("TouchRange run's tracker stats %+v, per-page touches' %+v", got.Tracker, exp.Tracker)
			}
			if c, e := m.Chameleon(), want.Chameleon(); c != nil && c.Samples() != e.Samples() {
				t.Errorf("TouchRange run's profiler took %d samples, per-page touches' %d", c.Samples(), e.Samples())
			}
			for pfn := mem.PFN(0); int(pfn) < want.store.Len(); pfn++ {
				if got, exp := *m.store.Page(pfn), *want.store.Page(pfn); got != exp {
					t.Fatalf("TouchRange run's page %d is %+v, per-page touches' %+v", pfn, got, exp)
				}
			}
		})
	}
}

// TestHugeTouchRangeFailsAsTouches runs a range from a mapped, hot
// frame past its region's end, which falls mid-frame, then a range over
// a hot frame of the now failed machine. Like per-page touches, the
// first must fail the machine at the first page outside the region,
// having charged the pages before it, and the second charge nothing.
func TestHugeTouchRangeFailsAsTouches(t *testing.T) {
	const fp = mem.HugeFramePages
	touch := func(perPage bool) *Machine {
		m, err := New(Config{
			Seed: 1, Policy: core.TPP(),
			Workload: &workload.Profile{
				PName: "HugeTail",
				TM:    metrics.ThroughputModel{CPUServiceNs: 400, StallsPerOp: 1},
				Specs: []workload.RegionSpec{{Name: "heap", Type: mem.Anon, Pages: 2*fp + 100, Weight: 1}},
			},
			Topology: cxlPages(8*fp, 4*fp, true),
		})
		if err != nil {
			t.Fatal(err)
		}
		r := m.as.RegionAt(0)
		for _, span := range []struct{ start, n uint64 }{{0, r.Pages}, {2 * fp, 200}, {0, 100}} {
			start := r.Start + pagetable.VPN(span.start)
			if !perPage {
				m.TouchRange(start, span.n)
				continue
			}
			for v := start; v < start+pagetable.VPN(span.n); v++ {
				m.Touch(v)
			}
		}
		return m
	}
	m, want := touch(false), touch(true)
	failed, why := m.Failed()
	wantFailed, wantWhy := want.Failed()
	if !wantFailed {
		t.Fatal("touching past the region's end did not fail the machine")
	}
	if failed != wantFailed || why != wantWhy || m.cur != want.cur {
		t.Fatalf("TouchRange: failed %v (%q), tick %+v; per-page touches: failed %v (%q), tick %+v",
			failed, why, m.cur, wantFailed, wantWhy, want.cur)
	}
}

// BenchmarkPrefault measures the warm-up flood alone, per base page: the
// workload phase of every warm-up tick, which faults the flooded regions
// in through Ctx.TouchRange. "huge" floods a 4 GB anon heap in 2 MB
// frames (huge-tb's heap, scaled down), "dense" floods Cache1's tmpfs
// store and anon query regions at 64K pages on the dense table, for
// contrast. Both machines hold their floods on the local node, so no
// reclaim runs.
func BenchmarkPrefault(b *testing.B) {
	for _, tc := range []struct {
		name string
		cfg  func() Config
	}{
		{"huge", func() Config {
			return Config{
				Seed: 1, Policy: core.TPP(),
				Workload: &workload.Profile{
					PName:  "HugeFlood",
					TM:     metrics.ThroughputModel{CPUServiceNs: 400, StallsPerOp: 1},
					Warmup: 16,
					Specs: []workload.RegionSpec{{
						Name: "heap", Type: mem.Anon, Pages: 1 << 20, Weight: 1,
						PrefaultPerTick: 64 << 10,
					}},
				},
				Topology: tier.Spec{Nodes: []tier.NodeSpec{
					{Kind: mem.KindLocal, Pages: 2 << 20},
					{Kind: mem.KindCXL, Pages: 1 << 20},
				}, HugePages: true},
			}
		}},
		{"dense", func() Config {
			return Config{
				Seed: 1, Policy: core.TPP(),
				Workload: workload.Catalog["Cache1"](64 << 10),
				Topology: tier.Spec{Nodes: []tier.NodeSpec{
					{Kind: mem.KindLocal, Pages: 128 << 10},
					{Kind: mem.KindCXL, Pages: 64 << 10},
				}},
			}
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var pages int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m, err := New(tc.cfg())
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for tick := uint64(0); tick < m.wl.WarmupTicks(); tick++ {
					m.wl.Tick(m, tick)
				}
				b.StopTimer()
				if failed, why := m.Failed(); failed {
					b.Fatalf("the flood failed the machine: %s", why)
				}
				pages = m.as.Mapped()
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pages), "ns/page")
		})
	}
}
