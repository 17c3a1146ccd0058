package xrand

import "math"

// Threshold draws. Every sampler below turns the 53-bit integer
// x = Uint64()>>11 into the uniform u = x/2^53, so it compares integers
// instead: for a CDF entry c, c < u holds exactly when
// uint64(c*2^53) < x (scaling by 2^53 is exact, and for an integer x,
// c*2^53 < x exactly when floor(c*2^53) < x). Zipf and Weighted keep
// those thresholds in place of their float CDFs and draw the same
// indices, bit for bit, with no float in the search.

// unit is 2^53, the threshold of a CDF entry of 1: above every draw.
const unit = 1 << 53

// CoinThreshold returns the integer t with x < t exactly when
// x/2^53 < p, for every 53-bit draw x: ceil(p*2^53), which is 0 for
// p <= 0 (and NaN) and 2^53 for p >= 1. A coin that would test
// u < p as RNG.Bool does tests x < t instead.
func CoinThreshold(p float64) uint64 {
	switch {
	case p >= 1:
		return unit
	case p > 0:
		return uint64(math.Ceil(p * unit))
	}
	return 0
}

// normalize turns running sums, stored as float64 bits in thr, into
// thresholds of the CDF sums/total, and pins the last entry to 2^53 (a
// CDF ending at exactly 1) against rounding.
func normalize(thr []uint64, total float64) {
	inv := 1 / total
	for i, b := range thr {
		thr[i] = uint64(math.Float64frombits(b) * inv * unit)
	}
	thr[len(thr)-1] = unit
}

// Search returns the smallest i with thr[i] >= x: the inverse-CDF lookup
// Weighted.Next and Zipf.Next perform for the draw x = Uint64()>>11,
// exported for inlined batch draws. The last threshold is 2^53, so
// every draw resolves in range.
func Search(thr []uint64, x uint64) int {
	return searchRange(thr, x, 0, len(thr))
}

// searchRange is Search restricted to [lo, hi) (the answer must lie in
// that range, or be hi). Wide ranges binary-search; the final few
// entries use a branch-free count of the entries below x, since
// binary-search probes on random x are guaranteed mispredicts.
func searchRange(thr []uint64, x uint64, lo, hi int) int {
	for hi-lo > 8 {
		mid := int(uint(lo+hi) >> 1)
		if thr[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	n := lo
	for i := lo; i < hi; i++ {
		// Both thr[i] and x are far below 2^63, so thr[i]-x wraps to a
		// value with the top bit set exactly when thr[i] < x.
		n += int((thr[i] - x) >> 63)
	}
	return n
}

// Zipf samples integers in [0, n) with probability proportional to
// 1/(i+1)^s. It precomputes the CDF's thresholds so sampling is
// O(log n); this trades memory for speed and determinism, which suits
// the simulator's fixed-size hot sets. Large supports additionally carry
// a guide table that maps a draw to a narrow threshold range, so the
// common case resolves with a couple of probes instead of a full-width
// binary search. The guide is a pure accelerator: samples are identical
// with or without it.
type Zipf struct {
	thr   []uint64
	guide []int32 // len zipfGuideSize+1; nil for small supports
	rng   *RNG
}

// zipfGuideSize buckets the draws for the guide table. A power of two,
// so a draw's bucket floor(u*zipfGuideSize) is the top bits of its
// 53-bit integer x, x>>zipfGuideShift.
const (
	zipfGuideSize  = 1024
	zipfGuideShift = 53 - 10
)

// NewZipf returns a Zipf sampler over [0, n) with exponent s >= 0.
// s == 0 degenerates to the uniform distribution.
func NewZipf(rng *RNG, n int, s float64) *Zipf {
	if n <= 0 {
		panic("xrand: NewZipf called with n <= 0")
	}
	z := &Zipf{thr: make([]uint64, n), rng: rng}
	sum := 0.0
	for i := range z.thr {
		sum += 1 / math.Pow(float64(i+1), s)
		z.thr[i] = math.Float64bits(sum)
	}
	normalize(z.thr, sum)
	if n > 128 {
		// guide[k] is the answer for the bucket's lowest draw, k<<shift,
		// so a draw in bucket k resolves in [guide[k], guide[k+1]].
		z.guide = make([]int32, zipfGuideSize+1)
		for k := 1; k <= zipfGuideSize; k++ {
			z.guide[k] = int32(Search(z.thr, uint64(k)<<zipfGuideShift))
		}
	}
	return z
}

// N returns the support size.
func (z *Zipf) N() int { return len(z.thr) }

// RNG returns the sampler's private random stream, the one Next draws
// from.
func (z *Zipf) RNG() *RNG { return z.rng }

// Next returns the next sample in [0, N()).
func (z *Zipf) Next() int { return z.index(z.rng.Uint64() >> 11) }

// index is the sample for the 53-bit draw x: Search(z.thr, x), over
// the range the guide gives x's bucket when there is a guide.
func (z *Zipf) index(x uint64) int {
	if z.guide == nil {
		return Search(z.thr, x)
	}
	k := x >> zipfGuideShift
	return searchRange(z.thr, x, int(z.guide[k]), int(z.guide[k+1]))
}

// Weighted samples an index in [0, len(weights)) with probability
// proportional to weights[i]. Weights may be updated between draws via
// SetWeight; the thresholds are rebuilt lazily.
type Weighted struct {
	weights []float64
	thr     []uint64
	dirty   bool
	rng     *RNG
}

// NewWeighted returns a sampler over the given weights. Negative weights
// are treated as zero. At least one weight must be positive at sampling
// time.
func NewWeighted(rng *RNG, weights []float64) *Weighted {
	w := &Weighted{weights: append([]float64(nil), weights...), rng: rng, dirty: true}
	return w
}

// SetWeight updates weights[i].
func (w *Weighted) SetWeight(i int, v float64) {
	w.weights[i] = v
	w.dirty = true
}

// Weight returns weights[i].
func (w *Weighted) Weight(i int) float64 { return w.weights[i] }

// Len returns the number of weights.
func (w *Weighted) Len() int { return len(w.weights) }

func (w *Weighted) rebuild() {
	if cap(w.thr) < len(w.weights) {
		w.thr = make([]uint64, len(w.weights))
	}
	w.thr = w.thr[:len(w.weights)]
	sum := 0.0
	for i, v := range w.weights {
		if v > 0 {
			sum += v
		}
		w.thr[i] = math.Float64bits(sum)
	}
	if sum <= 0 {
		panic("xrand: Weighted with no positive weights")
	}
	normalize(w.thr, sum)
	w.dirty = false
}

// Next returns the next weighted sample.
func (w *Weighted) Next() int {
	return Search(w.Thresholds(), w.rng.Uint64()>>11)
}

// Thresholds returns the thresholds of the sampler's cumulative
// distribution (rebuilding them if weights changed). The slice is owned
// by the sampler and valid until the next SetWeight. Together with
// Search and RNG it lets batch loops inline the draw that Next performs.
func (w *Weighted) Thresholds() []uint64 {
	if w.dirty {
		w.rebuild()
	}
	return w.thr
}

// RNG returns the sampler's private random stream — the one Next draws
// from. Inlined batch draws must use it, not the caller's stream.
func (w *Weighted) RNG() *RNG { return w.rng }

// Pareto samples from a bounded Pareto distribution on [lo, hi] with shape
// alpha. Used for object-size and lifetime draws in the workload
// generators.
type Pareto struct {
	lo, hi, alpha float64
	rng           *RNG
}

// NewPareto returns a bounded Pareto sampler. Requires 0 < lo < hi and
// alpha > 0.
func NewPareto(rng *RNG, lo, hi, alpha float64) *Pareto {
	if !(lo > 0 && hi > lo && alpha > 0) {
		panic("xrand: invalid Pareto parameters")
	}
	return &Pareto{lo: lo, hi: hi, alpha: alpha, rng: rng}
}

// Next returns the next sample in [lo, hi].
func (p *Pareto) Next() float64 {
	u := p.rng.Float64()
	la := math.Pow(p.lo, p.alpha)
	ha := math.Pow(p.hi, p.alpha)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/p.alpha)
}
