package workload

import (
	"math"
	"sort"
	"testing"

	"tppsim/internal/pagetable"
	"tppsim/internal/xrand"
)

// The scalar draw below is the reference that Profile.NextAccessBatch
// fuses: one access per call, each step a plain xrand call (Uint64n,
// Bool, Intn) on the same streams. It keeps the float definition of
// every pick and coin: the region picker and Zipf ranks search float
// CDFs built here, from the picker's weights and from the Zipf's
// (n, s), for u = x/2^53 (sort.SearchFloat64s, the smallest i with
// cdf[i] >= u), and the coins test u < p. Production draws the same
// indices by integer compares against thresholds.

// floatCDFs caches the reference CDFs by sampler; the samplers never
// change their weights after Start.
var floatCDFs = map[any][]float64{}

// weightedCDF is the float CDF of a Weighted sampler: running sums of
// its positive weights, scaled by the reciprocal of the total, the last
// entry pinned to 1.
func weightedCDF(w *xrand.Weighted) []float64 {
	if cdf, ok := floatCDFs[w]; ok {
		return cdf
	}
	cdf := make([]float64, w.Len())
	sum := 0.0
	for i := range cdf {
		if v := w.Weight(i); v > 0 {
			sum += v
		}
		cdf[i] = sum
	}
	normalizeCDF(cdf, sum)
	floatCDFs[w] = cdf
	return cdf
}

// zipfCDF is the float CDF of a Zipf sampler over [0, n) with exponent
// s: running sums of 1/(i+1)^s, normalized the same way.
func zipfCDF(z *xrand.Zipf, s float64) []float64 {
	if cdf, ok := floatCDFs[z]; ok {
		return cdf
	}
	cdf := make([]float64, z.N())
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	normalizeCDF(cdf, sum)
	floatCDFs[z] = cdf
	return cdf
}

func normalizeCDF(cdf []float64, sum float64) {
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[len(cdf)-1] = 1
}

// uniform is a stream's next draw as the float u = x/2^53 in [0, 1).
func uniform(rng *xrand.RNG) float64 { return float64(rng.Uint64()>>11) / (1 << 53) }

// NextAccess draws one access from the current distribution; ok is
// false when four region picks found nothing accessible.
func (p *Profile) NextAccess(ctx Ctx, tick uint64) (pagetable.VPN, bool) {
	warm := tick < p.Warmup
	picker := p.picker
	if warm {
		picker = p.warmupPicker
	}
	return p.draw(picker.RNG(), weightedCDF(picker), warm)
}

// draw produces one access from the current distribution. prng/cdf are
// the region picker's private stream and float CDF. Offsets draw from
// the workload's own stream.
func (p *Profile) draw(prng *xrand.RNG, cdf []float64, warm bool) (pagetable.VPN, bool) {
	rng := p.rng
	// A few rejection rounds in case the chosen region has nothing
	// accessible yet (pre-growth).
	for attempt := 0; attempt < 4; attempt++ {
		rs := &p.regions[sort.SearchFloat64s(cdf, uniform(prng))]
		if rs.kind == drawChurn {
			return rs.churnAccess(rng), true
		}
		if rs.grown == 0 {
			continue
		}
		var off uint64
		if warm {
			// During warm-up the hot set has not emerged yet: loads and
			// inserts touch the populated prefix uniformly in insertion
			// order. Steady-state hotness (a scattered permutation) is
			// deliberately uncorrelated with this order, so the hot set
			// ends up spread across whichever nodes the warm-up filled —
			// as in production, where object popularity has nothing to do
			// with insertion order.
			off = rng.Uint64n(rs.grown)
		} else {
			off = rs.offset(rng)
		}
		return rs.region.Start + pagetable.VPN(off), true
	}
	return 0, false
}

// offset draws a page offset within the region, honouring skew. The
// footprint is bounded by the grown counter; rank→page mapping is a fixed
// permutation over the whole region so the hot set is stable as the
// region grows.
func (rs *regionState) offset(rng *xrand.RNG) uint64 {
	var idx uint64
	switch rs.kind {
	case drawHot:
		// u < HotWeight, drawn only when the weight is in (0, 1).
		hot := rs.hot
		hotHit := rs.spec.HotWeight >= 1
		if w := rs.spec.HotWeight; w > 0 && w < 1 {
			hotHit = uniform(rng) < w
		}
		if hotHit || hot >= rs.grown {
			idx = rng.Uint64n(hot)
		} else {
			idx = hot + rng.Uint64n(rs.grown-hot)
		}
	case drawZipf:
		idx = uint64(sort.SearchFloat64s(zipfCDF(rs.zipf, rs.spec.ZipfS), uniform(rs.zipf.RNG())))
		if idx >= rs.grown {
			idx %= rs.grown
		}
	default:
		idx = rng.Uint64n(rs.grown)
	}
	return rs.scatter(idx)
}

// churnAccess picks a segment with recency bias, then a page uniformly.
func (rs *regionState) churnAccess(rng *xrand.RNG) pagetable.VPN {
	n := len(rs.segments)
	bias := rs.spec.RecencyBias
	var idx int
	if bias <= 0 {
		idx = rng.Intn(n)
	} else {
		// Geometric walk from the newest end: each step stops with
		// probability RecencyBias, so higher bias concentrates accesses
		// on recently allocated segments.
		idx = n - 1
		for idx > 0 && !rng.Bool(bias) {
			idx--
		}
	}
	seg := rs.segments[idx]
	return seg.Start + pagetable.VPN(rng.Uint64n(rs.segPages))
}

// TestNextAccessBatchMatchesNextAccess checks the fused draw loop against
// the scalar draw above: its threshold region pick, hot/cold split and
// Zipf rank draws, u64nRaw's rejection sampling on raw state words and
// the churn segment walk must reproduce the float definition's plain
// xrand calls draw for draw.
// Both sides share scatter, which TestScatterMatchesModulo pins to its
// modulo definition. Two copies of every catalog Profile, at two sizes,
// step through the same ticks (warm-up, growth, churn); at each drawing
// tick one copy draws a batch of 997 and the other 997 scalar draws,
// stopping at the first miss, and the VPNs and the stop points must
// match.
func TestNextAccessBatchMatchesNextAccess(t *testing.T) {
	const batch = 997
	every := uint64(1)
	if testing.Short() {
		every = 7
	}
	for _, name := range Names() {
		for _, pages := range []uint64{4 << 10, 32 << 10} {
			bw, ok := Catalog[name](pages).(*Profile)
			if !ok {
				continue
			}
			sw := Catalog[name](pages).(*Profile)
			bctx := &drawCtx{as: pagetable.New(1), rng: xrand.New(1)}
			sctx := &drawCtx{as: pagetable.New(1), rng: xrand.New(1)}
			bw.Start(bctx)
			sw.Start(sctx)
			buf := make([]pagetable.VPN, batch)
			for tick := uint64(0); tick < bw.WarmupTicks()+120; tick++ {
				bw.Tick(bctx, tick)
				sw.Tick(sctx, tick)
				if tick%every != 0 {
					continue
				}
				n := bw.NextAccessBatch(bctx, tick, buf)
				for i := 0; i < batch; i++ {
					v, ok := sw.NextAccess(sctx, tick)
					if !ok {
						if i != n {
							t.Fatalf("%s/%d tick %d: scalar draws stop at %d, the batch at %d", name, pages, tick, i, n)
						}
						break
					}
					if i >= n {
						t.Fatalf("%s/%d tick %d: the batch stops at %d, scalar draw %d succeeds", name, pages, tick, n, i)
					}
					if v != buf[i] {
						t.Fatalf("%s/%d tick %d draw %d: batch VPN %d, scalar %d", name, pages, tick, i, buf[i], v)
					}
				}
			}
		}
	}
}
