package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"strings"
	"time"

	"tppsim"
	"tppsim/internal/probe"
	"tppsim/internal/vmstat"
)

// setupBudgetS and maxSetups bound the set-up repeats setup_s is the
// median of: a 17 ms sweep build needs more samples than a 1 s one.
const (
	setupBudgetS = 0.5
	maxSetups    = 15
)

// plan holds one run's settings.
type plan struct {
	seed    uint64
	seconds float64 // measured length; the traced pass runs a quarter of it
	traced  bool
	// setups is the fewest times an untraced run builds and warms its
	// machines (at least 2: the first build is also the replay replica).
	// Cheap set-ups repeat until setupBudgetS is spent, up to maxSetups.
	setups int
	// warmCap caps each leg's warm-up; tests use it to stay fast (0: none).
	warmCap int
	// keepTicks keeps the traced pass's per-tick columns for the trace file.
	keepTicks bool
}

// result is one workload run.
type result struct {
	workload  string
	values    map[string]float64
	digest    uint64
	checked   bool    // digest compared against a committed one
	ticks     int     // measured ticks
	timed     int     // ticks the timings cover
	wallS     float64 // the window's wall-clock
	table     [][]string
	attempted int
	failed    int
	problems  []string
	scale     float64 // factor applied to host times (see clock.scale)
	// untracedAPS and tracedAPS are the accesses_per_s of the traced run's
	// two passes, for the tracing-overhead line.
	untracedAPS, tracedAPS float64
	trace                  *traceRecord
	clock                  clock
}

func (r *result) correct() bool { return len(r.problems) == 0 }

func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// run measures one workload. A panic, a failed machine, a failed check or
// a digest mismatch fails every tick of the run.
func run(w *workload, p plan) (r *result) {
	r = &result{workload: w.name, values: map[string]float64{}}
	defer func() {
		if e := recover(); e != nil {
			r.fail("panic: %v", e)
		}
		if !r.correct() {
			if r.attempted == 0 {
				r.attempted = 1
			}
			r.failed = r.attempted
		}
	}()
	if p.traced {
		runTraced(w, p, r)
	} else {
		runUntraced(w, p, r)
	}
	r.scale = r.clock.scale()
	r.untracedAPS /= r.scale
	r.tracedAPS /= r.scale
	for _, d := range declared(p.traced) {
		switch d.unit {
		case "s", "us", "ns":
			r.values[d.name] *= r.scale
		case "1/s":
			r.values[d.name] /= r.scale
		}
	}
	return r
}

// runUntraced measures the end-to-end metrics. Each set-up is timed and
// its post-warm-up digest compared with the first; the first set of
// machines then replays the start of the window, and the last set is
// measured.
func runUntraced(w *workload, p plan, r *result) {
	var setupS []float64
	var warmDigest, wantCheckpoint uint64
	var checkpoint int
	var set *machineSet
	for i := 0; i < max(2, p.setups) || i < maxSetups && sum(setupS) < setupBudgetS; i++ {
		set = nil // let the previous set be collected before building the next
		var err error
		if set, err = setUp(w, p, p.seconds, false, &r.clock); err != nil {
			r.fail("set-up: %v", err)
			return
		}
		setupS = append(setupS, set.newS+set.warmS)
		h := fnv.New64a()
		for _, m := range set.ms {
			digestMachine(h, m)
		}
		if i == 0 {
			warmDigest = h.Sum64()
			checkpoint = max(1, set.legs[0].ticks/20)
			for t := 0; t < checkpoint; t++ {
				set.ms[0].Step()
			}
			h = fnv.New64a()
			digestMachine(h, set.ms[0])
			wantCheckpoint = h.Sum64()
		} else if h.Sum64() != warmDigest {
			r.fail("set-up %d reached digest %016x after warm-up, set-up 1 reached %016x", i+1, h.Sum64(), warmDigest)
		}
	}
	win, err := measure(w, set, checkpoint, false)
	if err != nil {
		r.fail("%v", err)
		return
	}
	if win.checkpoint != wantCheckpoint {
		r.fail("digest %d ticks into the window is %016x, the replica's is %016x", checkpoint, win.checkpoint, wantCheckpoint)
	}
	r.record(win)
	r.checkDigest(w.name, p.seed, p.seconds)
	r.values["accesses_per_s"] = win.accessesPerS
	r.values["tick_us_p50"] = win.stepUs(0.50)
	r.values["tick_us_p99"] = win.stepUs(0.99)
	r.values["setup_s"] = median(setupS)
	r.values["bytes_per_page"] = win.bytesPerPage
	// The heap is the live machine's, without the window's buffers or the
	// sweep's finished legs.
	last := set.ms[len(set.ms)-1]
	set, win = nil, nil
	r.values["heap_mb"] = liveHeapMB()
	runtime.KeepAlive(last)
}

// runTraced measures the per-layer metrics: a quarter-length untraced
// pass, then the same pass with the phase profiler on, then timers around
// single layer calls on the traced pass's last machine. The two passes
// must reach the same digest, since the profiler only observes.
func runTraced(w *workload, p plan, r *result) {
	seconds := p.seconds / 4
	tr := newTracer()
	root := tr.begin(0, "run")
	defer tr.end(root)

	sp := tr.begin(root, "setup/untraced")
	set, err := setUp(w, p, seconds, false, &r.clock)
	tr.end(sp)
	if err != nil {
		r.fail("set-up: %v", err)
		return
	}
	newS, warmS := set.newS, set.warmS
	sp = tr.begin(root, "window/untraced")
	plain, err := measure(w, set, 0, false)
	tr.end(sp)
	if err != nil {
		r.fail("untraced pass: %v", err)
		return
	}

	set = nil
	sp = tr.begin(root, "setup/traced")
	set, err = setUp(w, p, seconds, true, &r.clock)
	tr.end(sp)
	if err != nil {
		r.fail("traced set-up: %v", err)
		return
	}
	sp = tr.begin(root, "window/traced")
	win, err := measure(w, set, 0, true)
	tr.end(sp)
	if err != nil {
		r.fail("traced pass: %v", err)
		return
	}
	if win.digest != plain.digest {
		r.fail("the traced pass reached digest %016x, the untraced pass %016x", win.digest, plain.digest)
	}
	r.record(win)
	r.checkDigest(w.name, p.seed, seconds)
	r.untracedAPS, r.tracedAPS = plain.accessesPerS, win.accessesPerS

	v := r.values
	v["sim.new_s"] = newS
	v["sim.warm_s"] = warmS
	v["sim.tick_us"] = win.stepUs(-1)
	var phaseSum float64
	for ph, name := range phaseMetrics {
		v[name] = win.phaseUs(probe.Phase(ph), -1)
		phaseSum += v[name]
	}
	v["sim.phase_share"] = phaseSum / v["sim.tick_us"]
	v["reclaim.tick_us_p99"] = win.phaseUs(probe.PhaseReclaim, 0.99)
	v["numab.tick_us_p99"] = win.phaseUs(probe.PhaseNUMAB, 0.99)
	v["go.allocs_per_tick"] = float64(win.mallocs) / float64(win.ticks)
	v["trace.overhead"] = plain.accessesPerS / win.accessesPerS

	perTick := func(cs ...vmstat.Counter) float64 { return float64(win.counted(cs...)) / float64(win.ticks) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	v["alloc.pages_per_tick"] = perTick(vmstat.PgallocLocal, vmstat.PgallocCXL)
	v["alloc.stalls_per_tick"] = perTick(vmstat.PgallocStall)
	v["reclaim.scanned_per_tick"] = perTick(vmstat.PgscanKswapd, vmstat.PgscanDirect)
	v["reclaim.yield"] = ratio(
		perTick(vmstat.PgstealKswapd, vmstat.PgstealDirect, vmstat.PgdemoteKswapd, vmstat.PgdemoteDirect),
		v["reclaim.scanned_per_tick"])
	v["migrate.pages_per_tick"] = perTick(vmstat.PgmigrateSuccess)
	v["migrate.fail_ratio"] = ratio(perTick(vmstat.PgmigrateFail), perTick(vmstat.PgmigrateSuccess, vmstat.PgmigrateFail))
	v["numab.hint_faults_per_tick"] = perTick(vmstat.NumaHintFaults)
	v["numab.promote_yield"] = ratio(perTick(vmstat.PgpromoteSuccess), v["numab.hint_faults_per_tick"])
	v["numab.pingpong_ratio"] = ratio(perTick(vmstat.PgpromoteDemoted), perTick(vmstat.PgpromoteSuccess))
	v["tracker.pages_scanned_per_tick"] = perTick(vmstat.TrackerPagesScanned)
	v["lru.rotated_per_tick"] = perTick(vmstat.PgRotated)

	// The layer timers perturb the machine, so they run only now, after
	// the traced pass's digest is taken.
	m, l := set.ms[len(set.ms)-1], set.legs[len(set.legs)-1]
	sp = tr.begin(root, "timer/draw")
	batch, err := timeDraw(l, m, v)
	tr.end(sp)
	if err != nil {
		r.fail("%v", err)
		return
	}
	sp = tr.begin(root, "timer/translate")
	pfns := timeTranslate(m, batch, v)
	tr.end(sp)
	sp = tr.begin(root, "timer/migrate")
	timeMigrate(m, pfns, v)
	tr.end(sp)
	sp = tr.begin(root, "timer/series")
	timeSeries(m, v)
	tr.end(sp)

	if p.keepTicks {
		r.trace = &traceRecord{Workload: w.name, Seed: p.seed, Seconds: seconds, Spans: tr.spans, Ticks: win.columns()}
	}
}

// phaseMetrics names the per-layer metric of each tick phase; the phases
// partition Step, so their means sum to the traced tick mean.
var phaseMetrics = [probe.NumPhases]string{
	probe.PhaseWorkload:  "workload.tick_us",
	probe.PhaseDraw:      "workload.draw_us",
	probe.PhaseTranslate: "pagetable.translate_us",
	probe.PhaseCharge:    "sim.charge_us",
	probe.PhaseReclaim:   "reclaim.tick_us",
	probe.PhaseNUMAB:     "numab.tick_us",
	probe.PhaseControl:   "control.tick_us",
	probe.PhaseFold:      "metrics.fold_us",
}

func (r *result) record(win *window) {
	r.digest = win.digest
	r.ticks = win.ticks
	r.timed = len(win.stepNs)
	r.attempted = win.ticks
	r.wallS = win.wallS
	r.table = win.table
}

func (r *result) checkDigest(name string, seed uint64, seconds float64) {
	want, ok := expectedDigests[digestKey(name, seed, seconds)]
	r.checked = ok
	if ok && want != r.digest {
		r.fail("digest %016x, committed %016x", r.digest, want)
	}
}

// machineSet is one build of a workload's machines, one per leg.
type machineSet struct {
	legs        []leg
	ms          []*tppsim.Machine
	newS, warmS float64 // seconds spent building and warming them
	clock       *clock  // the run's clock probe, read between chunks
}

// setUp builds a fresh set of legs, so no two machines share a workload
// generator, and steps each machine through its warm-up.
func setUp(w *workload, p plan, seconds float64, traced bool, clk *clock) (*machineSet, error) {
	runtime.GC()
	clk.probe()
	set := &machineSet{legs: w.legs(p.seed, seconds), clock: clk}
	for _, l := range set.legs {
		cfg := l.cfg
		cfg.ProbePhases = traced
		start := time.Now()
		m, err := tppsim.NewMachine(cfg)
		set.newS += time.Since(start).Seconds()
		if err != nil {
			return nil, err
		}
		warm := l.warm
		if p.warmCap > 0 {
			warm = min(warm, p.warmCap)
		}
		start = time.Now()
		for t := 0; t < warm; t++ {
			m.Step()
		}
		set.warmS += time.Since(start).Seconds()
		if failed, why := m.Failed(); failed && !l.mayFail {
			return nil, fmt.Errorf("machine failed during warm-up: %s", why)
		}
		set.ms = append(set.ms, m)
	}
	return set, nil
}

// window is what one measured pass leaves behind. Its timings cover the
// ticks fastTicks selects; its counts cover every tick.
type window struct {
	ticks        int       // ticks stepped
	stepNs       []float64 // host ns per selected Step, sorted
	accessesPerS float64   // simulated accesses per host second of selected Steps
	wallS        float64   // window wall-clock, less the benchmark's own work
	mallocs      uint64
	counts       vmstat.Snapshot // vmstat deltas over the window, summed over legs
	digest       uint64
	checkpoint   uint64 // digest of the first leg at the checkpoint tick
	bytesPerPage float64
	table        [][]string // the sweep's Table 1 rows
	// Traced passes only: per selected tick host ns of each phase (sorted),
	// and every tick's unsorted columns for the trace file.
	phaseNs [probe.NumPhases][]float64
	legOf   []int
	rawStep []float64
	rawPh   [probe.NumPhases][]float64
}

// measure steps every leg through its window, timing each Step. At tick
// checkpoint of the first leg it records that leg's digest (0: none).
// Finished sweep legs are released, as the experiments runner releases
// them; the last machine stays for the layer timers.
func measure(w *workload, set *machineSet, checkpoint int, traced bool) (*window, error) {
	legs, ms := set.legs, set.ms
	total := 0
	for _, l := range legs {
		total += l.ticks
	}
	chunk := max(1, total/chunks)
	win := &window{}
	stepNs := make([]float64, 0, total)
	accesses := make([]float64, 0, total)
	legStart := make([]int, 0, len(legs))
	var phaseNs [probe.NumPhases][]float64
	if traced {
		win.legOf = make([]int, 0, total)
		for ph := range phaseNs {
			phaseNs[ph] = make([]float64, 0, total)
		}
	}
	cells := make([][]string, len(table1Rows))
	h := fnv.New64a()
	var tableBytes, residentPages uint64
	var own time.Duration // digests, checks and clock probes inside the window
	ownSince := func(t time.Time) { own += time.Since(t) }

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i, m := range ms {
		l := legs[i]
		startCounts := m.Stat().Snapshot()
		var prof *probe.PhaseProfiler
		var prev [probe.NumPhases]uint64
		if traced {
			prof = m.Probes().Prof
			for ph := range prev {
				prev[ph] = prof.Hist(probe.Phase(ph)).Sum()
			}
		}
		acc := float64(l.cfg.AccessesPerTick)
		legStart = append(legStart, len(stepNs))
		for t := 0; t < l.ticks; t++ {
			if len(stepNs)%chunk == 0 {
				o := time.Now()
				set.clock.probe()
				ownSince(o)
			}
			if i == 0 && t == checkpoint {
				o := time.Now()
				ck := fnv.New64a()
				digestMachine(ck, m)
				win.checkpoint = ck.Sum64()
				ownSince(o)
			}
			s := time.Now()
			m.Step()
			stepNs = append(stepNs, float64(time.Since(s)))
			accesses = append(accesses, acc)
			if prof != nil {
				win.legOf = append(win.legOf, i)
				for ph := range prev {
					sum := prof.Hist(probe.Phase(ph)).Sum()
					phaseNs[ph] = append(phaseNs[ph], float64(sum-prev[ph]))
					prev[ph] = sum
				}
			}
			if failed, why := m.Failed(); failed {
				if !l.mayFail {
					return nil, fmt.Errorf("machine failed at tick %d: %s", m.Tick(), why)
				}
				break
			}
		}
		if w.table {
			res := m.Run() // finishes the run: every tick is already stepped
			if cells[l.row] == nil {
				cells[l.row] = []string{l.label, "-", "-", "-", "-"}
			}
			cells[l.row][1+l.col] = "Fails"
			if !res.Failed {
				cells[l.row][1+l.col] = fmt.Sprintf("%.1f", 100*res.NormalizedThroughput)
			}
		}
		o := time.Now()
		if err := checkConservation(m); err != nil {
			return nil, err
		}
		end := m.Stat().Snapshot()
		for c := range end {
			if end[c] < startCounts[c] {
				return nil, fmt.Errorf("vmstat %s went backwards", vmstat.Counter(c))
			}
			win.counts[c] += end[c] - startCounts[c]
		}
		digestMachine(h, m)
		st := m.MemStats()
		tableBytes += st.TableBytes + st.StoreBytes
		residentPages += st.ResidentPages
		if i < len(ms)-1 {
			ms[i] = nil
		}
		ownSince(o)
	}
	win.wallS = (time.Since(start) - own).Seconds()
	runtime.ReadMemStats(&after)
	win.mallocs = after.Mallocs - before.Mallocs

	if w.table {
		win.table = cells
		for _, row := range cells {
			h.Write([]byte(strings.Join(row, "\t") + "\n"))
		}
	}
	win.digest = h.Sum64()
	win.ticks = len(stepNs)
	if residentPages > 0 {
		win.bytesPerPage = float64(tableBytes) / float64(residentPages)
	}

	var acc, ns float64
	for _, t := range fastTicks(stepNs, legStart) {
		acc += accesses[t]
		ns += stepNs[t]
		win.stepNs = append(win.stepNs, stepNs[t])
		if traced {
			for ph := range phaseNs {
				win.phaseNs[ph] = append(win.phaseNs[ph], phaseNs[ph][t])
			}
		}
	}
	win.accessesPerS = acc / (ns / 1e9)
	sort.Float64s(win.stepNs)
	if traced {
		win.rawStep, win.rawPh = stepNs, phaseNs
		for ph := range win.phaseNs {
			sort.Float64s(win.phaseNs[ph])
		}
	}
	return win, nil
}

// chunks is about how many runs of ticks a window is cut into, for
// fastTicks and the clock probe: at the declared lengths a chunk takes
// about a tenth of a second.
const chunks = 100

// clock samples a fixed loop of multiply-adds that touches no memory, so
// its time follows the core's clock alone. On the shared 2-CPU host the
// bounds were set on, the clock moves in steps of about 3.5% as
// co-tenants load the package, shifting whole runs by up to 15%. Host
// times are reported at the clock where the loop takes clockNominalNs,
// its median there: each is multiplied by clockNominalNs over the run's
// median sample, and rates are divided by it.
type clock struct{ samples []float64 }

// clockNominalNs is the probe loop's median time on a 2-vCPU Xeon host.
const clockNominalNs = 136e3

// clockSink keeps the probe loop's result observable.
var clockSink uint64

func (c *clock) probe() {
	start := time.Now()
	a, b := clockSink|1, clockSink|2
	for i := 0; i < 1<<17; i++ {
		a = a*6364136223846793005 + 1
		b = b*6364136223846793005 + 3
	}
	clockSink = a ^ b
	c.samples = append(c.samples, float64(time.Since(start)))
}

func (c *clock) scale() float64 {
	if len(c.samples) == 0 {
		return 1
	}
	return clockNominalNs / median(c.samples)
}

// fastTicks returns the indexes of the ticks in the fastest quarter of
// each leg's chunks, ranked by their median Step time; legStart holds
// each leg's first index into stepNs. On a shared host a co-tenant can
// slow every Step by up to 60% for seconds at a time. A run's timings are
// then those of the simulator on a quiet core as long as a quarter of
// each leg ran quietly. Selecting within each leg keeps the sweep's mix
// of machines the same from run to run.
func fastTicks(stepNs []float64, legStart []int) []int {
	chunk := max(1, len(stepNs)/chunks)
	var out []int
	for i, lo := range legStart {
		hi := len(stepNs)
		if i+1 < len(legStart) {
			hi = legStart[i+1]
		}
		n := max(1, (hi-lo+chunk/2)/chunk)
		type span struct {
			lo, hi int
			median float64
		}
		spans := make([]span, 0, n)
		for k := 0; k < n; k++ {
			a, b := lo+k*(hi-lo)/n, lo+(k+1)*(hi-lo)/n
			if a < b {
				spans = append(spans, span{a, b, median(stepNs[a:b])})
			}
		}
		sort.Slice(spans, func(x, y int) bool { return spans[x].median < spans[y].median })
		for _, sp := range spans[:(len(spans)+3)/4] {
			for t := sp.lo; t < sp.hi; t++ {
				out = append(out, t)
			}
		}
	}
	return out
}

// stepUs is the q-quantile of the host µs per selected Step, or the mean
// when q is negative.
func (win *window) stepUs(q float64) float64 { return quantile(win.stepNs, q) / 1e3 }

// phaseUs is the q-quantile (or, q negative, the mean) of one phase's
// host µs per selected tick.
func (win *window) phaseUs(ph probe.Phase, q float64) float64 {
	return quantile(win.phaseNs[ph], q) / 1e3
}

// counted sums vmstat deltas over the window.
func (win *window) counted(cs ...vmstat.Counter) uint64 {
	var n uint64
	for _, c := range cs {
		n += win.counts[c]
	}
	return n
}

// quantile is the nearest-rank q-quantile of sorted xs, or their mean
// when q is negative.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q < 0 {
		var sum float64
		for _, x := range sorted {
			sum += x
		}
		return sum / float64(len(sorted))
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// liveHeapMB is the live Go heap after a forced collection, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
