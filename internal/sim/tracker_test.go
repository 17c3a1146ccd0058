package sim

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"testing"

	"tppsim/internal/core"
	"tppsim/internal/mem"
	"tppsim/internal/series"
	"tppsim/internal/tier"
	"tppsim/internal/tracker"
	"tppsim/internal/vmstat"
	"tppsim/internal/workload"
)

// trackerCounters are the stats-plane counters owned by the tracker
// plane. Masking them separates "did the tracker change the simulation"
// (it must not) from "did the tracker count its own work" (it must).
var trackerCounters = []vmstat.Counter{
	vmstat.TrackerPagesScanned,
	vmstat.TrackerRegionsSplit,
	vmstat.TrackerRegionsMerged,
	vmstat.MoverPagesMoved,
	vmstat.MoverBudgetDeferred,
}

func maskTrackerCounters(s vmstat.Snapshot) vmstat.Snapshot {
	for _, c := range trackerCounters {
		s[c] = 0
	}
	return s
}

// maskedSeriesDigest is seriesDigest minus the tracker-owned counters,
// so tracker-on sampled series can be compared against tracker-off ones:
// everything the tracker does not own must match bit for bit.
func maskedSeriesDigest(s *series.Series) string {
	skip := map[vmstat.Counter]bool{}
	for _, c := range trackerCounters {
		skip[c] = true
	}
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(s.Nodes()))
	put(s.Cadence())
	put(uint64(s.Len()))
	for n := 0; n < s.Nodes(); n++ {
		for c := 0; c < vmstat.NumCounters; c++ {
			if skip[vmstat.Counter(c)] {
				continue
			}
			for i := 0; i < s.Len(); i++ {
				put(s.Delta(n, vmstat.Counter(c), i))
			}
		}
		for k := 0; k < series.NumLevels; k++ {
			for i := 0; i < s.Len(); i++ {
				put(s.Level(n, series.LevelKind(k), i))
			}
		}
	}
	return fmt.Sprintf("%dx%d h=%016x", s.Len(), s.Cadence(), h.Sum64())
}

// TestTrackersDoNotPerturbRuns pins the tracker plane's observer
// contract on a non-sampled policy: attaching any tracker kind to a TPP
// run must reproduce the tracker-off run's scalars, vmstat counters
// (modulo the tracker's own five), and sampled series bit for bit. The
// plane watches the access stream and counts its own work; without the
// sampled policy it never builds a mover, so nothing feeds back.
func TestTrackersDoNotPerturbRuns(t *testing.T) {
	baseCfg := func() Config {
		return Config{
			Seed: 7, Policy: core.TPP(),
			Workload:         workload.Catalog["Web1"](8 * 1024),
			Topology:         tier.PresetCXL(2, 1),
			Minutes:          6,
			SampleEveryTicks: 1,
		}
	}
	runOnce := func(mut func(*Config)) (*Machine, string, string) {
		cfg := baseCfg()
		if mut != nil {
			mut(&cfg)
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := m.Run()
		if res.Failed {
			t.Fatal(res.FailReason)
		}
		scalars := fmt.Sprintf("%v/%v/%v", res.NormalizedThroughput, res.AvgLocalTraffic, res.AvgLatencyNs)
		return m, scalars, maskedSeriesDigest(res.NodeSeries)
	}

	mOff, sOff, dOff := runOnce(nil)
	if mOff.TrackerPlane() != nil || mOff.Results().Tracker != nil {
		t.Fatal("tracker-off run grew a tracker plane")
	}
	for _, c := range trackerCounters {
		if v := mOff.Stat().Get(c); v != 0 {
			t.Errorf("tracker-off run counted %s = %d", c, v)
		}
	}

	for _, kind := range tracker.KindNames() {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			m, s, d := runOnce(func(c *Config) {
				c.Tracker = tracker.Config{Kind: kind}
			})
			if s != sOff {
				t.Errorf("tracker changed scalars: off %s, on %s", sOff, s)
			}
			if d != dOff {
				t.Errorf("tracker changed sampled series: off %s, on %s", dOff, d)
			}
			if maskTrackerCounters(m.Stat().Snapshot()) != maskTrackerCounters(mOff.Stat().Snapshot()) {
				t.Error("tracker changed non-tracker vmstat counters")
			}
			for n := 0; n < m.Stat().NumNodes(); n++ {
				on := maskTrackerCounters(m.Stat().NodeSnapshot(mem.NodeID(n)))
				off := maskTrackerCounters(mOff.Stat().NodeSnapshot(mem.NodeID(n)))
				if on != off {
					t.Errorf("node %d: tracker changed non-tracker counters", n)
				}
			}
			// The plane did run: it scanned pages and summarized itself.
			ts := m.Results().Tracker
			if ts == nil || ts.Kind != kind {
				t.Fatalf("run has no tracker summary for %s", kind)
			}
			if ts.Scans == 0 || m.Stat().Get(vmstat.TrackerPagesScanned) == 0 {
				t.Errorf("%s scanned nothing", kind)
			}
			// Without the sampled policy there is no mover: observational
			// only, zero pages moved or deferred.
			if ts.MoverMoved != 0 || ts.MoverDeferred != 0 ||
				m.Stat().Get(vmstat.MoverPagesMoved) != 0 {
				t.Errorf("%s moved pages under a non-sampled policy", kind)
			}
		})
	}
}

// TestSampledPolicyGolden pins the sampled policy end to end the same
// way TestSeedDeterminismGolden pins TPP: fixed seed on the 3-tier
// expander, exact scalars and vmstat snapshot, and a second run must
// reproduce the first bit for bit (the plane's randomness is seeded,
// never wall-clock). Recapture (with a commit-message note) if tracker
// or mover behavior legitimately changes.
func TestSampledPolicyGolden(t *testing.T) {
	const (
		wantTput   = "0.91604047002486"
		wantLocal  = "0.5294918045067866"
		wantLat    = "182.5048610616656"
		wantVmstat = `mover_budget_deferred 52288
mover_pages_moved 2803
pgalloc_cxl 5267
pgalloc_local 10364
pgdeactivate 49708
pgdemote_anon 642
pgdemote_fail 5
pgdemote_file 1699
pgmigrate_fail 53635
pgmigrate_success 2803
pgpromote_anon 78
pgpromote_demoted 100
pgpromote_file 384
pgpromote_success 462
pgrotated 189181
pgscan_kswapd 639565
pgsteal_kswapd 558
promote_fail_low_memory 53506
promote_fail_page_refs 124
tracker_pages_scanned 447781
`
	)
	runOnce := func() (*Machine, *RunSnapshot) {
		m, err := New(Config{
			Seed: 7, Policy: core.Sampled(),
			Workload: workload.Catalog["Cache2"](16 * 1024),
			Topology: tier.PresetExpander(2, 1, 1),
			Minutes:  10,
		})
		if err != nil {
			t.Fatal(err)
		}
		res := m.Run()
		if res.Failed {
			t.Fatalf("run failed: %s", res.FailReason)
		}
		f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
		return m, &RunSnapshot{
			Tput: f(res.NormalizedThroughput), Local: f(res.AvgLocalTraffic),
			Lat: f(res.AvgLatencyNs), Vmstat: m.Stat().Snapshot().String(),
		}
	}
	m, got := runOnce()
	if got.Tput != wantTput {
		t.Errorf("throughput = %s, want %s", got.Tput, wantTput)
	}
	if got.Local != wantLocal {
		t.Errorf("local traffic = %s, want %s", got.Local, wantLocal)
	}
	if got.Lat != wantLat {
		t.Errorf("latency = %s, want %s", got.Lat, wantLat)
	}
	if got.Vmstat != wantVmstat {
		t.Errorf("vmstat mismatch:\n got:\n%s want:\n%s", got.Vmstat, wantVmstat)
	}
	// The policy actually drove the mover, and its vmstat counters agree
	// with the plane's own summary.
	ts := m.Results().Tracker
	if ts == nil {
		t.Fatal("sampled run has no tracker summary")
	}
	if ts.MoverMoved == 0 {
		t.Error("sampled policy moved no pages")
	}
	if v := m.Stat().Get(vmstat.MoverPagesMoved); v != ts.MoverMoved {
		t.Errorf("mover_pages_moved = %d, plane counted %d", v, ts.MoverMoved)
	}
	assertNodeSumsMatchGlobal(t, m)

	// Determinism: an identical second run reproduces everything.
	_, again := runOnce()
	if *again != *got {
		t.Errorf("second run diverged:\n first: %+v\n again: %+v", got, again)
	}
}

// RunSnapshot is the pinnable state of one golden run.
type RunSnapshot struct {
	Tput, Local, Lat, Vmstat string
}

// TestSampledPolicyCompletesOnPresets runs the sampled policy on every
// topology preset: the tracker-driven daemon must complete the run and
// actually move pages on each machine shape.
func TestSampledPolicyCompletesOnPresets(t *testing.T) {
	for _, name := range tier.PresetNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, ok := tier.Preset(name)
			if !ok {
				t.Fatalf("unknown preset %s", name)
			}
			m, err := New(Config{
				Seed: 3, Policy: core.Sampled(),
				Workload: workload.Catalog["Cache2"](8 * 1024),
				Topology: spec,
				Minutes:  6,
			})
			if err != nil {
				t.Fatal(err)
			}
			res := m.Run()
			if res.Failed {
				t.Fatalf("run failed: %s", res.FailReason)
			}
			ts := res.Tracker
			if ts == nil {
				t.Fatal("no tracker summary")
			}
			if ts.MoverMoved == 0 {
				t.Error("mover moved no pages")
			}
			assertNodeSumsMatchGlobal(t, m)
		})
	}
}

// TestTrackerAccuracyOracle scores the trackers against ground truth on
// PhaseShift, whose anon phases are pure reads (dirtyProb 0): the
// idlepage tracker's accessed-bit scans must recover most of the true
// hot set, while softdirty — watching only writes — must miss nearly
// all of it at the same scan cadence. This is the write-only blind spot
// as a provable property, not a narrative.
func TestTrackerAccuracyOracle(t *testing.T) {
	recallOf := func(kind string) *tracker.RunStats {
		m, err := New(Config{
			Seed: 7, Policy: core.TPP(),
			Workload: workload.Catalog["PhaseShift"](8 * 1024),
			Topology: tier.PresetCXL(2, 1),
			Minutes:  8,
			Tracker:  tracker.Config{Kind: kind, Oracle: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		res := m.Run()
		if res.Failed {
			t.Fatalf("%s run failed: %s", kind, res.FailReason)
		}
		ts := res.Tracker
		if ts == nil || ts.OracleEvals == 0 {
			t.Fatalf("%s run scored no oracle windows", kind)
		}
		return ts
	}

	idle := recallOf("idlepage")
	soft := recallOf("softdirty")
	if idle.Recall < 0.5 {
		t.Errorf("idlepage recall = %.3f, want >= 0.5 (accessed-bit scans see reads)", idle.Recall)
	}
	if soft.Recall > 0.05 {
		t.Errorf("softdirty recall = %.3f, want <= 0.05 (write-only tracking on a read-only hot set)", soft.Recall)
	}
	if idle.Recall < 10*soft.Recall {
		t.Errorf("idlepage recall %.3f not >> softdirty recall %.3f", idle.Recall, soft.Recall)
	}
	// Same scan cadence, same price: softdirty's blindness is not
	// cheapness, it checked a comparable number of pages.
	if idle.PagesScanned == 0 || soft.PagesScanned == 0 {
		t.Errorf("scan counts: idlepage %d, softdirty %d", idle.PagesScanned, soft.PagesScanned)
	}
}
