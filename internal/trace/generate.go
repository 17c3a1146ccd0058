package trace

import (
	"bytes"
	"fmt"
	"sync"

	"tppsim/internal/mem"
	"tppsim/internal/metrics"
	"tppsim/internal/pagetable"
	"tppsim/internal/workload"
	"tppsim/internal/xrand"
)

// GenConfig parameterizes the synthetic trace generators. The zero value
// takes sensible defaults matching the simulator's (DefaultTotalPages
// working set, 2000 accesses per tick).
type GenConfig struct {
	// Pages is the total working-set size in 4 KB pages.
	Pages uint64
	// Minutes is the generated trace length in simulated minutes.
	Minutes int
	// AccessesPerTick is the sampled access rate; match the machine's
	// AccessesPerTick for full-rate replay.
	AccessesPerTick int
	// Seed drives the generator's private random stream.
	Seed uint64
}

func (c GenConfig) withDefaults() GenConfig {
	if c.Pages == 0 {
		c.Pages = workload.DefaultTotalPages
	}
	if c.Minutes == 0 {
		c.Minutes = 12
	}
	if c.AccessesPerTick == 0 {
		c.AccessesPerTick = 2000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// gen is the shared generator harness: a Writer over an in-memory
// buffer, a private RNG, and a recorded-address-space allocator that
// hands out strictly increasing region starts (the invariant the
// Replayer's translation table relies on).
type gen struct {
	w    *Writer
	buf  *bytes.Buffer
	rng  *xrand.RNG
	next pagetable.VPN
}

func newGen(h Header, seed uint64) *gen {
	buf := &bytes.Buffer{}
	return &gen{w: NewWriter(buf, h), buf: buf, rng: xrand.New(seed)}
}

func (g *gen) mmap(pages uint64, t mem.PageType, dirty float64) pagetable.Region {
	// Percentage-of-total sizing rounds tiny working sets down to zero;
	// every region is at least one page.
	if pages == 0 {
		pages = 1
	}
	r := pagetable.Region{Start: g.next, Pages: pages, Type: t}
	g.next += pagetable.VPN(pages) + 16
	g.w.Mmap(r, dirty)
	return r
}

// prefault sequentially touches every page of r (start-section warm-up).
func (g *gen) prefault(r pagetable.Region) {
	for v := r.Start; v < r.End(); v++ {
		g.w.Touch(v)
	}
}

func (g *gen) finish() *Trace {
	g.w.Close()
	tr, err := Decode(g.buf.Bytes())
	if err != nil {
		// Generators only emit well-formed streams; a decode failure here
		// is a programming error.
		panic("trace: generator produced malformed stream: " + err.Error())
	}
	return tr
}

// atLeast1 clamps percentage-of-total region sizing, which rounds tiny
// working sets down to zero pages.
func atLeast1(n uint64) uint64 {
	if n == 0 {
		return 1
	}
	return n
}

// headerPages sizes the machine for the clamped footprint: with tiny
// working sets the per-region minimums can exceed the configured total.
func headerPages(cfgPages, footprint uint64) uint64 {
	if footprint > cfgPages {
		return footprint
	}
	return cfgPages
}

// genScatterPrime decouples popularity rank from page order inside
// generated regions, exactly as workload.Profile does: hot pages must
// not cluster at a region's start.
const genScatterPrime = 1000000007

// hotOffset draws a page offset with two-tier popularity: a hotFrac
// share of the region absorbs hotWeight of the draws, scattered across
// the region by a fixed permutation.
func hotOffset(rng *xrand.RNG, pages uint64, hotFrac, hotWeight float64) uint64 {
	hot := uint64(hotFrac * float64(pages))
	if hot < 1 {
		hot = 1
	}
	var idx uint64
	if rng.Bool(hotWeight) || hot >= pages {
		idx = rng.Uint64n(hot)
	} else {
		idx = hot + rng.Uint64n(pages-hot)
	}
	return (idx * genScatterPrime) % pages
}

// PhaseShift generates a phase-change working set that the Profile model
// cannot express: two disjoint anon regions take turns being the hot
// set, flipping every five minutes. Placement policies that converge on
// one hot set are forced to re-converge from scratch each phase; the
// local-traffic series shows a sawtooth whose recovery slope is the
// policy's adaptation speed.
func PhaseShift(cfg GenConfig) *Trace {
	cfg = cfg.withDefaults()
	phasePages := atLeast1(cfg.Pages * 46 / 100)
	filePages := atLeast1(cfg.Pages * 8 / 100)
	g := newGen(Header{
		Name:       "PhaseShift",
		Model:      metrics.ThroughputModel{CPUServiceNs: 500, StallsPerOp: 1},
		TotalPages: headerPages(cfg.Pages, 2*phasePages+filePages),
	}, cfg.Seed)

	phaseA := g.mmap(phasePages, mem.Anon, 0)
	phaseB := g.mmap(phasePages, mem.Anon, 0)
	file := g.mmap(filePages, mem.File, 0.3)
	g.prefault(phaseA)
	g.prefault(phaseB)
	g.w.StartEnd()

	const phaseTicks = 5 * workload.TicksPerMinute
	ticks := cfg.Minutes * workload.TicksPerMinute
	for t := 0; t < ticks; t++ {
		active, idle := phaseA, phaseB
		if (t/phaseTicks)%2 == 1 {
			active, idle = phaseB, phaseA
		}
		for i := 0; i < cfg.AccessesPerTick; i++ {
			switch {
			case g.rng.Bool(0.88):
				g.w.Access(active.Start + pagetable.VPN(hotOffset(g.rng, active.Pages, 0.25, 0.92)))
			case g.rng.Bool(0.5):
				g.w.Access(idle.Start + pagetable.VPN(g.rng.Uint64n(idle.Pages)))
			default:
				g.w.Access(file.Start + pagetable.VPN(g.rng.Uint64n(file.Pages)))
			}
		}
		g.w.TickEnd()
	}
	return g.finish()
}

// SequentialScan generates an LRU-pollution scenario: a stable hot anon
// core carries most of the traffic, while every two minutes a sequential
// scan sweeps the entire cold file region, faulting and touching each
// page once. Recency-based placement treats the swept pages as hot and
// churns the local node; frequency-aware placement should hold the core.
func SequentialScan(cfg GenConfig) *Trace {
	cfg = cfg.withDefaults()
	corePages := atLeast1(cfg.Pages * 30 / 100)
	coldPages := atLeast1(cfg.Pages * 70 / 100)
	g := newGen(Header{
		Name:       "SeqScan",
		Model:      metrics.ThroughputModel{CPUServiceNs: 450, StallsPerOp: 1},
		TotalPages: headerPages(cfg.Pages, corePages+coldPages),
	}, cfg.Seed)

	core := g.mmap(corePages, mem.Anon, 0)
	cold := g.mmap(coldPages, mem.File, 0.2)
	g.prefault(core)
	g.w.StartEnd()

	const (
		scanPeriod = 2 * workload.TicksPerMinute
		scanLen    = 30 // ticks per sweep
	)
	perScanTick := cold.Pages/scanLen + 1
	ticks := cfg.Minutes * workload.TicksPerMinute
	var cursor uint64
	for t := 0; t < ticks; t++ {
		if phase := t % scanPeriod; phase < scanLen {
			if phase == 0 {
				cursor = 0
			}
			end := cursor + perScanTick
			if end > cold.Pages {
				end = cold.Pages
			}
			for v := cursor; v < end; v++ {
				g.w.Touch(cold.Start + pagetable.VPN(v))
			}
			cursor = end
		}
		for i := 0; i < cfg.AccessesPerTick; i++ {
			if g.rng.Bool(0.85) {
				g.w.Access(core.Start + pagetable.VPN(hotOffset(g.rng, core.Pages, 0.35, 0.93)))
			} else {
				g.w.Access(cold.Start + pagetable.VPN(g.rng.Uint64n(cold.Pages)))
			}
		}
		g.w.TickEnd()
	}
	return g.finish()
}

// AdversarialChurn generates a promotion-hostile allocation pattern: a
// ring of short-lived segments where accesses concentrate on the
// *oldest* segments — pages become hottest just before they are
// unmapped. Every promotion a policy performs on ring pages is wasted
// bandwidth; the scenario rewards policies that gate promotion on
// sustained reuse rather than instantaneous heat.
func AdversarialChurn(cfg GenConfig) *Trace {
	cfg = cfg.withDefaults()
	const (
		segments   = 12
		churnTicks = 6
	)
	basePages := atLeast1(cfg.Pages * 40 / 100)
	segPages := atLeast1(cfg.Pages * 60 / 100 / segments)
	g := newGen(Header{
		Name:       "AdvChurn",
		Model:      metrics.ThroughputModel{CPUServiceNs: 600, StallsPerOp: 1},
		TotalPages: headerPages(cfg.Pages, basePages+segments*segPages),
	}, cfg.Seed)

	base := g.mmap(basePages, mem.Anon, 0)
	ring := make([]pagetable.Region, 0, segments)
	for i := 0; i < segments; i++ {
		seg := g.mmap(segPages, mem.Anon, 0)
		g.prefault(seg)
		ring = append(ring, seg)
	}
	g.prefault(base)
	g.w.StartEnd()

	ticks := cfg.Minutes * workload.TicksPerMinute
	for t := 0; t < ticks; t++ {
		if t > 0 && t%churnTicks == 0 {
			g.w.Munmap(ring[0])
			copy(ring, ring[1:])
			fresh := g.mmap(segPages, mem.Anon, 0)
			ring[segments-1] = fresh
			// The allocation burst: fresh request memory is written
			// immediately.
			for v := fresh.Start; v < fresh.End(); v++ {
				g.w.Touch(v)
			}
		}
		for i := 0; i < cfg.AccessesPerTick; i++ {
			switch {
			case g.rng.Bool(0.5):
				// Doomed heat: the two oldest segments, unmapped soonest.
				seg := ring[g.rng.Intn(2)]
				g.w.Access(seg.Start + pagetable.VPN(g.rng.Uint64n(seg.Pages)))
			case g.rng.Bool(0.7):
				g.w.Access(base.Start + pagetable.VPN(hotOffset(g.rng, base.Pages, 0.3, 0.9)))
			default:
				seg := ring[2+g.rng.Intn(segments-2)]
				g.w.Access(seg.Start + pagetable.VPN(g.rng.Uint64n(seg.Pages)))
			}
		}
		g.w.TickEnd()
	}
	return g.finish()
}

// genCache shares generated traces across catalog constructor calls:
// generation is deterministic, traces are immutable once built, and
// Replayers are independent cursors, so one build per (scenario, pages)
// serves every policy run that replays it.
var genCache = struct {
	sync.Mutex
	m map[string]*Trace
}{m: map[string]*Trace{}}

func cachedTrace(name string, pages uint64, build func() *Trace) *Trace {
	key := fmt.Sprintf("%s/%d", name, pages)
	genCache.Lock()
	defer genCache.Unlock()
	tr, ok := genCache.m[key]
	if !ok {
		tr = build()
		genCache.m[key] = tr
	}
	return tr
}

// Trace-backed catalog entries: the generated scenarios appear alongside
// the paper's Profile workloads and loop seamlessly for runs longer than
// the generated stream.
func init() {
	workload.Register("PhaseShift", func(total uint64) workload.Workload {
		return cachedTrace("PhaseShift", total, func() *Trace {
			return PhaseShift(GenConfig{Pages: total})
		}).Replayer(ReplayOptions{Loop: true})
	})
	workload.Register("SeqScan", func(total uint64) workload.Workload {
		return cachedTrace("SeqScan", total, func() *Trace {
			return SequentialScan(GenConfig{Pages: total})
		}).Replayer(ReplayOptions{Loop: true})
	})
	workload.Register("AdvChurn", func(total uint64) workload.Workload {
		return cachedTrace("AdvChurn", total, func() *Trace {
			return AdversarialChurn(GenConfig{Pages: total})
		}).Replayer(ReplayOptions{Loop: true})
	})
}
