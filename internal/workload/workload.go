// Package workload generates the memory access streams of the paper's
// production applications (§3.1): HHVM-style web serving (Web1/Web2),
// distributed caches over tmpfs (Cache1/Cache2), a Data Warehouse compute
// engine, and Ads ranking. Each generator is a Profile — a set of regions
// with page types, access weights, intra-region skew, warm-up flooding,
// growth, and churn — parameterized to match the published
// characterization:
//
//   - page-type mixes and their drift over time (Figs. 8, 9),
//   - hot fractions at 1/2/5/10-minute windows (Fig. 7),
//   - anon-hotter-than-file behaviour (Fig. 8),
//   - re-access recycling vs fresh allocation (Fig. 11),
//   - short-lived, hot request allocations (§5.2's allocation bursts).
//
// Time base: one simulator tick is one simulated second; figures plot
// simulated minutes.
package workload

import (
	"fmt"
	"math"
	"math/bits"

	"tppsim/internal/mem"
	"tppsim/internal/metrics"
	"tppsim/internal/pagetable"
	"tppsim/internal/xrand"
)

// TicksPerMinute converts the simulator's 1-second ticks to the figures'
// minute axis.
const TicksPerMinute = 60

// Ctx is the machine interface a workload drives. The simulator
// implements it; tests use a fake.
type Ctx interface {
	// Mmap reserves a region; pages are faulted in on first Touch.
	Mmap(pages uint64, t mem.PageType) pagetable.Region
	// Munmap releases a region and frees its pages.
	Munmap(r pagetable.Region)
	// Touch performs one memory access at v (demand-faulting if needed).
	Touch(v pagetable.VPN)
	// TouchRange performs exactly Touch(start), Touch(start+1), ...,
	// Touch(start+n-1), in that order. The warm-up flood and a churned
	// segment's fault-in touch their pages through it, so a machine can
	// charge a huge frame's run of accesses without translating each.
	TouchRange(start pagetable.VPN, n uint64)
	// RNG returns the workload's private random stream.
	RNG() *xrand.RNG
}

// Workload is the interface the simulator runs.
type Workload interface {
	// Name is the display name ("Web1", ...).
	Name() string
	// Model returns the throughput-model calibration for this workload.
	Model() metrics.ThroughputModel
	// TotalPages is the working-set size.
	TotalPages() uint64
	// WarmupTicks is the length of the initialization phase.
	WarmupTicks() uint64
	// Start performs setup (mmaps) at tick zero.
	Start(ctx Ctx)
	// Tick runs once per simulated second: warm-up flooding, growth,
	// churn, bursts.
	Tick(ctx Ctx, tick uint64)
	// BatchAccessor draws the tick's sampled access stream.
	BatchAccessor
}

// ErrorReporter is an optional Workload extension for workloads that
// can fail mid-run — e.g. a trace replay hitting a corrupt stream. The
// simulator checks it when the run completes and marks the run failed,
// so a silently-stalled workload cannot masquerade as a healthy result.
type ErrorReporter interface {
	WorkloadErr() error
}

// BatchAccessor is a workload's only draw: it writes up to len(buf) of
// the tick's accesses into buf and returns how many it wrote, fewer when
// the workload has nothing accessible (nothing mapped yet, or a trace's
// tick ran out). The simulator draws a tick's whole stream before it
// charges any of it, so a draw must not read machine state that the
// tick's accesses change (residency, faults, reclaim); Profile draws
// from its own regions and generators, and a trace replay from the
// trace and its region table.
type BatchAccessor interface {
	NextAccessBatch(ctx Ctx, tick uint64, buf []pagetable.VPN) int
}

// DirtyModel is an optional Workload extension: the probability that a
// page faulted into region r is dirty at birth (dirty file pages force
// writeback on default reclaim). The simulator consults it on the fault
// path; workloads that do not implement it fault clean pages. The trace
// recorder persists these probabilities per region so a replayed run
// reproduces the original's writeback load exactly.
type DirtyModel interface {
	DirtyProb(r pagetable.Region) float64
}

// Validator is an optional Workload extension for workloads whose
// parameters can describe one that cannot run. The simulator calls
// Validate before it builds a machine and fails with its error, so bad
// sizing is reported instead of panicking mid-setup.
type Validator interface {
	Validate() error
}

// RegionSpec declares one region of a Profile.
type RegionSpec struct {
	// Name for debugging and per-region stats.
	Name string
	// Type is the page type of every page in the region.
	Type mem.PageType
	// Pages is the region size: at least one page unless this is a
	// churn region (Profile.Validate).
	Pages uint64
	// Weight is the steady-state probability weight of accesses landing
	// in this region.
	Weight float64
	// WarmupWeight overrides Weight during the warm-up phase (zero means
	// "use Weight").
	WarmupWeight float64
	// ZipfS is the intra-region popularity skew (0 = uniform). Higher
	// skew means a smaller fraction of the region is hot.
	ZipfS float64
	// HotFraction/HotWeight, when HotFraction > 0, select two-tier
	// popularity instead of Zipf: a HotFraction share of the region's
	// pages absorbs HotWeight of its accesses, the rest spread uniformly.
	// This matches the paper's characterization structure (Fig. 7:
	// distinct hot bands over a large cold mass) and is what makes
	// hot-set placement converge instead of thrashing on a heavy
	// Zipf middle.
	HotFraction float64
	HotWeight   float64
	// DirtyProb is the probability a page is dirty when faulted in
	// (dirty file pages force writeback on default reclaim).
	DirtyProb float64
	// PrefaultPerTick, during warm-up, sequentially touches this many
	// pages per tick (the Web file-I/O flood of §6.1.1).
	PrefaultPerTick uint64
	// GrowthPerTick caps how fast the accessed prefix of the region
	// expands after warm-up (0 = entire region immediately accessible).
	// Models Web1's slow anon growth (Fig. 9a).
	GrowthPerTick float64
	// ChurnSegments > 0 makes this a churn region: it is maintained as a
	// ring of that many independently-mmapped segments, and every
	// ChurnTicks the oldest segment is freed and a fresh one allocated
	// and touched (short-lived request memory, §5.2).
	ChurnSegments int
	// ChurnTicks is the per-segment recycle period.
	ChurnTicks uint64
	// BurstProb/BurstMul: each tick with probability BurstProb the churn
	// allocation is amplified BurstMul-fold (allocation bursts).
	BurstProb float64
	BurstMul  int
	// RecencyBias, for churn regions, weights access toward newer
	// segments (0 = uniform over segments; 1 = strongly newest-first).
	RecencyBias float64
}

// Profile is the generic region-based workload implementation.
type Profile struct {
	PName  string
	TM     metrics.ThroughputModel
	Warmup uint64
	Specs  []RegionSpec
	// WSS, when non-zero, overrides TotalPages for machine sizing. Web
	// workloads set region sums *above* WSS: the page cache greedily
	// consumes free memory (the §6.1.1 init flood "fills up the local
	// node"), and reclaim is expected to push it back out.
	WSS          uint64
	regions      []regionState
	picker       *xrand.Weighted
	warmupPicker *xrand.Weighted
	rng          *xrand.RNG // cached from Ctx at Start
}

// Draw-kind discriminants, precomputed so the per-access draw never reads
// the cold spec struct.
const (
	drawUniform = iota
	drawHot
	drawZipf
	drawChurn
)

type regionState struct {
	// Hot fields first: the per-access draw touches only these (plus
	// segments/segPages for churn regions), so they share the leading
	// cache lines instead of sitting behind the large spec.
	kind      uint8            // drawUniform/drawHot/drawZipf/drawChurn
	hotWeight float64          // spec.HotWeight copy for drawHot
	bias      float64          // spec.RecencyBias copy for drawChurn
	grown     uint64           // accessible prefix (pages)
	hot       uint64           // cached hot-set size for the current grown
	region    pagetable.Region // static regions
	// scatterInv is the Barrett reciprocal floor((2^64-1)/Pages) that
	// lets scatter compute a static region's rank→page permutation in
	// registers.
	scatterInv uint64
	zipf       *xrand.Zipf
	// Churn state: ring of segments, newest last.
	segments []pagetable.Region
	segPages uint64

	spec           RegionSpec
	growAcc        float64 // fractional-growth accumulator
	churnTick      uint64
	prefaultCursor uint64
}

// setGrown updates the accessible prefix and the cached hot-set size
// derived from it, so the draw does not recompute it per access.
func (rs *regionState) setGrown(g uint64) {
	rs.grown = g
	if rs.spec.HotFraction > 0 {
		hot := uint64(rs.spec.HotFraction * float64(g))
		if hot < 1 {
			hot = 1
		}
		rs.hot = hot
	}
}

var _ Workload = (*Profile)(nil)
var _ DirtyModel = (*Profile)(nil)
var _ Validator = (*Profile)(nil)

// Validate implements Validator: every static region needs at least one
// page to draw from. Catalog regions are sized as percentages of the
// working set, so a small enough working set rounds one down to zero.
// Churn regions are exempt (their segments have at least one page)
// unless ZipfS asks for a rank table over their pages. Weight and
// WarmupWeight must be finite and non-negative, and some region needs a
// positive Weight for the draw to pick from.
func (p *Profile) Validate() error {
	names := make([]string, 0, len(p.Specs))
	positive := false
	for _, spec := range p.Specs {
		if spec.Pages == 0 {
			if spec.ChurnSegments <= 0 {
				return fmt.Errorf("workload %s: region %q has 0 pages; a larger working set is needed", p.PName, spec.Name)
			}
			if spec.ZipfS > 0 {
				return fmt.Errorf("workload %s: churn region %q has 0 pages to rank by ZipfS %v", p.PName, spec.Name, spec.ZipfS)
			}
		}
		if !finiteNonNeg(spec.Weight) {
			return fmt.Errorf("workload %s: region %q Weight %v is not a finite non-negative number", p.PName, spec.Name, spec.Weight)
		}
		if !finiteNonNeg(spec.WarmupWeight) {
			return fmt.Errorf("workload %s: region %q WarmupWeight %v is not a finite non-negative number", p.PName, spec.Name, spec.WarmupWeight)
		}
		positive = positive || spec.Weight > 0
		names = append(names, spec.Name)
	}
	if !positive {
		return fmt.Errorf("workload %s: no region of %q has a positive Weight", p.PName, names)
	}
	return nil
}

// finiteNonNeg reports whether x is a finite number >= 0 (NaN is not).
func finiteNonNeg(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// Name implements Workload.
func (p *Profile) Name() string { return p.PName }

// Model implements Workload.
func (p *Profile) Model() metrics.ThroughputModel { return p.TM }

// WarmupTicks implements Workload.
func (p *Profile) WarmupTicks() uint64 { return p.Warmup }

// TotalPages implements Workload. It returns the sizing working set: the
// WSS override when set, otherwise the sum of region sizes.
func (p *Profile) TotalPages() uint64 {
	if p.WSS != 0 {
		return p.WSS
	}
	var s uint64
	for _, r := range p.Specs {
		s += r.Pages
	}
	return s
}

// DirtyProb implements DirtyModel: the dirty-at-fault probability for
// pages in r. Regions are identified by size+type; profiles keep them
// unique enough for this purpose (churn segments share spec sizes).
func (p *Profile) DirtyProb(r pagetable.Region) float64 {
	for i := range p.Specs {
		spec := &p.Specs[i]
		if spec.Type == r.Type && (spec.Pages == r.Pages ||
			(spec.ChurnSegments > 0 && r.Pages == spec.Pages/uint64(spec.ChurnSegments))) {
			return spec.DirtyProb
		}
	}
	return 0
}

// Start implements Workload: mmap every region and initialize samplers.
func (p *Profile) Start(ctx Ctx) {
	rng := ctx.RNG()
	p.rng = rng
	p.regions = p.regions[:0]
	steady := make([]float64, len(p.Specs))
	warm := make([]float64, len(p.Specs))
	for i, spec := range p.Specs {
		rs := regionState{spec: spec, hotWeight: spec.HotWeight, bias: spec.RecencyBias}
		switch {
		case spec.ChurnSegments > 0:
			rs.kind = drawChurn
		case spec.HotFraction > 0:
			rs.kind = drawHot
		case spec.ZipfS > 0:
			rs.kind = drawZipf
		default:
			rs.kind = drawUniform
		}
		if spec.ZipfS > 0 {
			// Zipf over a bounded rank space to keep setup cheap; ranks
			// map onto the grown prefix by modulo.
			n := int(spec.Pages)
			if n > 1<<16 {
				n = 1 << 16
			}
			rs.zipf = xrand.NewZipf(rng.Split(), n, spec.ZipfS)
		}
		if spec.ChurnSegments > 0 {
			rs.segPages = spec.Pages / uint64(spec.ChurnSegments)
			if rs.segPages == 0 {
				rs.segPages = 1
			}
			for s := 0; s < spec.ChurnSegments; s++ {
				rs.segments = append(rs.segments, ctx.Mmap(rs.segPages, spec.Type))
			}
			rs.setGrown(spec.Pages)
		} else {
			rs.region = ctx.Mmap(spec.Pages, spec.Type)
			if spec.GrowthPerTick > 0 || spec.PrefaultPerTick > 0 {
				rs.setGrown(0)
			} else {
				rs.setGrown(spec.Pages)
			}
			rs.initScatter()
		}
		p.regions = append(p.regions, rs)
		steady[i] = spec.Weight
		warm[i] = spec.WarmupWeight
		if warm[i] == 0 {
			warm[i] = spec.Weight
		}
	}
	p.picker = xrand.NewWeighted(rng.Split(), steady)
	p.warmupPicker = xrand.NewWeighted(rng.Split(), warm)
}

// Tick implements Workload: warm-up flooding, growth, and churn.
func (p *Profile) Tick(ctx Ctx, tick uint64) {
	rng := ctx.RNG()
	for ri := range p.regions {
		rs := &p.regions[ri]
		spec := rs.spec
		// Warm-up flood: sequentially touch (and thereby fault) pages.
		if tick < p.Warmup && spec.PrefaultPerTick > 0 && rs.prefaultCursor < spec.Pages {
			end := rs.prefaultCursor + spec.PrefaultPerTick
			if end > spec.Pages {
				end = spec.Pages
			}
			ctx.TouchRange(rs.region.Start+pagetable.VPN(rs.prefaultCursor), end-rs.prefaultCursor)
			rs.prefaultCursor = end
			if rs.grown < end {
				rs.setGrown(end)
			}
		}
		// Post-warm-up growth of the accessible prefix. Fractional rates
		// accumulate so slow growth (a fraction of a page per tick) still
		// progresses.
		if spec.GrowthPerTick > 0 && tick >= p.Warmup && rs.grown < spec.Pages {
			rs.growAcc += spec.GrowthPerTick
			if whole := uint64(rs.growAcc); whole > 0 {
				rs.growAcc -= float64(whole)
				g := rs.grown + whole
				if g > spec.Pages {
					g = spec.Pages
				}
				rs.setGrown(g)
			}
		}
		// Churn: recycle the oldest segment on period (with bursts).
		// Request churn is a steady-state behaviour: it starts once the
		// service is warm (requests arrive after initialization).
		if spec.ChurnSegments > 0 && spec.ChurnTicks > 0 && tick >= p.Warmup {
			rs.churnTick++
			n := 0
			if rs.churnTick >= spec.ChurnTicks {
				rs.churnTick = 0
				n = 1
				if spec.BurstProb > 0 && rng.Bool(spec.BurstProb) {
					n = spec.BurstMul
				}
				if n > len(rs.segments)-1 {
					n = len(rs.segments) - 1
				}
			}
			for i := 0; i < n; i++ {
				old := rs.segments[0]
				copy(rs.segments, rs.segments[1:])
				rs.segments = rs.segments[:len(rs.segments)-1]
				ctx.Munmap(old)
				fresh := ctx.Mmap(rs.segPages, spec.Type)
				rs.segments = append(rs.segments, fresh)
				// Newly allocated request memory is written immediately:
				// the §5.2 allocation burst.
				ctx.TouchRange(fresh.Start, rs.segPages)
			}
		}
	}
}

// u64nRaw is RNG.Uint64n over raw state words (identical draws), so
// batch loops pass state in registers instead of through memory.
func u64nRaw(n, s0, s1, s2, s3 uint64) (out, t0, t1, t2, t3 uint64) {
	if n&(n-1) == 0 {
		v, a, b, c, d := xrand.Step(s0, s1, s2, s3)
		return v & (n - 1), a, b, c, d
	}
	for {
		v, a, b, c, d := xrand.Step(s0, s1, s2, s3)
		s0, s1, s2, s3 = a, b, c, d
		hi, lo := bits.Mul64(v, n)
		if lo >= n || lo >= -n%n {
			return hi, s0, s1, s2, s3
		}
	}
}

// NextAccessBatch implements Workload. Each access picks a region on the
// picker's stream, then a page in it on the workload's stream; a pick of
// a region with nothing accessible yet (pre-growth) is retried, and after
// four misses the batch ends. The picker's CDF is resolved once and both
// streams' state words stay in locals, so draws touch no generator memory.
func (p *Profile) NextAccessBatch(ctx Ctx, tick uint64, buf []pagetable.VPN) int {
	warm := tick < p.Warmup
	picker := p.picker
	if warm {
		picker = p.warmupPicker
	}
	prng, wrng := picker.RNG(), p.rng
	cdf := picker.CDF()
	p0, p1, p2, p3 := prng.State()
	w0, w1, w2, w3 := wrng.State()
	n := 0
fill:
	for n < len(buf) {
		for attempt := 0; ; attempt++ {
			if attempt == 4 {
				break fill
			}
			var pu uint64
			pu, p0, p1, p2, p3 = xrand.Step(p0, p1, p2, p3)
			rs := &p.regions[xrand.SearchCDF(cdf, float64(pu>>11)/(1<<53))]
			if rs.kind == drawChurn {
				// A segment by a walk from the newest that stops at each
				// step with probability RecencyBias, then a page uniformly.
				segn := len(rs.segments)
				var idx int
				if rs.bias <= 0 {
					var r uint64
					r, w0, w1, w2, w3 = u64nRaw(uint64(segn), w0, w1, w2, w3)
					idx = int(r)
				} else {
					idx = segn - 1
					if rs.bias < 1 {
						for idx > 0 {
							var v uint64
							v, w0, w1, w2, w3 = xrand.Step(w0, w1, w2, w3)
							if float64(v>>11)/(1<<53) < rs.bias {
								break
							}
							idx--
						}
					}
				}
				var so uint64
				so, w0, w1, w2, w3 = u64nRaw(rs.segPages, w0, w1, w2, w3)
				buf[n] = rs.segments[idx].Start + pagetable.VPN(so)
				n++
				continue fill
			}
			if rs.grown == 0 {
				continue
			}
			var off uint64
			if warm {
				// Warm-up: uniform over the populated prefix, in insertion
				// order. Steady-state hotness (the scatter permutation) is
				// uncorrelated with that order, so the hot set spreads over
				// whichever nodes the warm-up filled, as in production.
				off, w0, w1, w2, w3 = u64nRaw(rs.grown, w0, w1, w2, w3)
			} else {
				// A rank honouring the skew, within the grown prefix, then
				// the scatter permutation, fixed over the whole region so
				// the hot set stays put as the region grows.
				var idx uint64
				switch rs.kind {
				case drawHot:
					hot := rs.hot
					hotHit := rs.hotWeight >= 1
					if w := rs.hotWeight; w > 0 && w < 1 {
						var v uint64
						v, w0, w1, w2, w3 = xrand.Step(w0, w1, w2, w3)
						hotHit = float64(v>>11)/(1<<53) < w
					}
					if hotHit || hot >= rs.grown {
						idx, w0, w1, w2, w3 = u64nRaw(hot, w0, w1, w2, w3)
					} else {
						idx, w0, w1, w2, w3 = u64nRaw(rs.grown-hot, w0, w1, w2, w3)
						idx += hot
					}
				case drawZipf:
					idx = uint64(rs.zipf.Next()) // zipf's own stream
					if idx >= rs.grown {
						idx %= rs.grown
					}
				default:
					idx, w0, w1, w2, w3 = u64nRaw(rs.grown, w0, w1, w2, w3)
				}
				off = rs.scatter(idx)
			}
			buf[n] = rs.region.Start + pagetable.VPN(off)
			n++
			continue fill
		}
	}
	prng.SetState(p0, p1, p2, p3)
	wrng.SetState(w0, w1, w2, w3)
	return n
}

// scatterPrime is coprime to every region size below it, so
// (idx * scatterPrime) % Pages permutes page indices: popularity rank is
// decoupled from allocation order. Page hotness in real applications is
// uncorrelated with fault order, so the hot set must not cluster at the
// region's start (which would let a full local node keep the hot set by
// accident of allocation order).
const scatterPrime = 1000000007

// initScatter precomputes scatter's reciprocal for the static region
// rs.region.
func (rs *regionState) initScatter() { rs.scatterInv = ^uint64(0) / rs.region.Pages }

// scatter maps popularity rank idx to its page offset,
// (idx*scatterPrime) % Pages, with a Barrett reduction instead of a
// divide. For any 64-bit x, floor(x*scatterInv / 2^64) is floor(x/Pages)
// or one less, so one correction step leaves exactly x % Pages. x is the
// same wrapping product the definition reduces, so the offset is the
// same bit for bit at every region size.
func (rs *regionState) scatter(idx uint64) uint64 {
	pages := rs.region.Pages
	x := idx * scatterPrime
	q, _ := bits.Mul64(x, rs.scatterInv)
	r := x - q*pages
	if r >= pages {
		r -= pages
	}
	return r
}
