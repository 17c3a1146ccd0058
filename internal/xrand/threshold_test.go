package xrand

import (
	"math"
	"sort"
	"testing"
)

// The samplers' float definition: a draw x stands for u = x/2^53, and
// the sample is the smallest i with cdf[i] >= u (sort.SearchFloat64s);
// a coin with probability p comes up when u < p. These tests hold the
// integer thresholds to it.

// floatIndex is the float definition's sample for draw x.
func floatIndex(cdf []float64, x uint64) int {
	return sort.SearchFloat64s(cdf, float64(x)/(1<<53))
}

// thresholdsOf turns a float CDF into thresholds through normalize, the
// samplers' own conversion (a total of 1 leaves every entry as it is).
func thresholdsOf(cdf []float64) []uint64 {
	thr := make([]uint64, len(cdf))
	for i, c := range cdf {
		thr[i] = math.Float64bits(c)
	}
	normalize(thr, 1)
	return thr
}

// probes returns the draws a threshold search is checked at: 0, the
// last draw 2^53-1, and each threshold and its neighbours, the draws
// where a search off by one compare would differ.
func probes(thr []uint64) []uint64 {
	xs := []uint64{0, unit - 1}
	for _, t := range thr {
		for _, x := range []uint64{t - 1, t, t + 1} {
			if x < unit {
				xs = append(xs, x)
			}
		}
	}
	return xs
}

// floatZipfCDF is Zipf's CDF in floats: running sums of 1/(i+1)^s,
// scaled by the reciprocal of the total, the last entry pinned to 1.
func floatZipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[n-1] = 1
	return cdf
}

// floatWeightedCDF is Weighted's CDF in floats: running sums of the
// positive weights, normalized the same way.
func floatWeightedCDF(weights []float64) []float64 {
	cdf := make([]float64, len(weights))
	sum := 0.0
	for i, v := range weights {
		if v > 0 {
			sum += v
		}
		cdf[i] = sum
	}
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[len(cdf)-1] = 1
	return cdf
}

// randomCDF returns a nondecreasing CDF ending at 1 with the shapes a
// normalized sum produces: leading zeros, repeats, subnormal and tiny
// steps, one-ulp steps, runs of 1.0 and, before the pinned last entry,
// a run one ulp above 1 (a total times its rounded reciprocal).
func randomCDF(rng *RNG, n int) []float64 {
	cdf := make([]float64, n)
	c := 0.0
	for i := range cdf {
		switch rng.Intn(8) {
		case 0: // repeat
		case 1:
			c += 5e-324 * float64(rng.Intn(4))
		case 2:
			c += math.Ldexp(rng.Float64(), -rng.Intn(1070))
		case 3:
			c = math.Nextafter(c, 2)
		case 4:
			if rng.Intn(16) == 0 {
				c = 1
			}
		default:
			c += rng.Float64() * 2 / float64(n)
		}
		cdf[i] = min(c, 1)
	}
	if n > 2 && rng.Intn(4) == 0 {
		for i := n - 1 - rng.Intn(n/2+1); i < n-1; i++ {
			cdf[i] = math.Nextafter(1, 2)
		}
	}
	cdf[n-1] = 1
	return cdf
}

// checkSearch fails unless Search over thr returns floatIndex over cdf
// at every probe and at the extra draws xs.
func checkSearch(t testing.TB, cdf []float64, thr []uint64, xs ...uint64) {
	t.Helper()
	for _, x := range append(probes(thr), xs...) {
		if got, want := Search(thr, x), floatIndex(cdf, x); got != want {
			t.Fatalf("draw %d (u=%v): threshold search %d, float search %d\ncdf %v", x, float64(x)/(1<<53), got, want, cdf)
		}
	}
}

// TestThresholdSearchMatchesFloat checks the threshold rule on random
// CDFs: thresholds from normalize, searched at random draws and at
// every threshold's boundary, give the float search's index.
func TestThresholdSearchMatchesFloat(t *testing.T) {
	rng := New(61)
	for trial := 0; trial < 2000; trial++ {
		cdf := randomCDF(rng, 1+rng.Intn(40))
		thr := thresholdsOf(cdf)
		for i, c := range cdf {
			if want := uint64(c * (1 << 53)); thr[i] != want {
				t.Fatalf("threshold %d of %v is %d, want %d", i, c, thr[i], want)
			}
		}
		xs := make([]uint64, 64)
		for i := range xs {
			xs[i] = rng.Uint64() >> 11
		}
		checkSearch(t, cdf, thr, xs...)
	}
}

// TestZipfThresholdsMatchFloat checks Zipf's thresholds against its
// float CDF and its sample, guided at large supports, against the float
// search: at each threshold's boundary, at each guide bucket's edges
// and at random draws.
func TestZipfThresholdsMatchFloat(t *testing.T) {
	rng := New(67)
	for _, tc := range []struct {
		n int
		s float64
	}{{1, 1}, {7, 1.2}, {128, 0.99}, {129, 0}, {1000, 1.0}, {4096, 0.5}, {1 << 16, 0.99}, {1 << 16, 2.5},
		// Uniform over 1024 and 2048: thresholds fall on the guide's
		// bucket edges.
		{1024, 0}, {2048, 0}} {
		z := NewZipf(New(1), tc.n, tc.s)
		if (z.guide != nil) != (tc.n > 128) {
			t.Fatalf("n=%d: guide present %v", tc.n, z.guide != nil)
		}
		cdf := floatZipfCDF(tc.n, tc.s)
		for i, c := range cdf {
			if want := uint64(c * (1 << 53)); z.thr[i] != want {
				t.Fatalf("n=%d s=%v: threshold %d is %d, float CDF %v gives %d", tc.n, tc.s, i, z.thr[i], c, want)
			}
		}
		xs := probes(z.thr)
		for k := uint64(0); k < zipfGuideSize; k++ {
			edge := k << zipfGuideShift
			xs = append(xs, edge, edge+1, edge+1<<zipfGuideShift-1)
			if edge > 0 {
				xs = append(xs, edge-1)
			}
		}
		for i := 0; i < 20000; i++ {
			xs = append(xs, rng.Uint64()>>11)
		}
		for _, x := range xs {
			if got, want := z.index(x), floatIndex(cdf, x); got != want {
				t.Fatalf("n=%d s=%v draw %d: guided threshold search %d, float search %d", tc.n, tc.s, x, got, want)
			}
		}
	}
}

// TestWeightedThresholdsMatchFloat checks Weighted's thresholds, built
// in its normalizing pass, against its float CDF, including zero,
// negative and tiny weights, and the search over them.
func TestWeightedThresholdsMatchFloat(t *testing.T) {
	rng := New(71)
	for trial := 0; trial < 500; trial++ {
		weights := make([]float64, 1+rng.Intn(30))
		for i := range weights {
			switch rng.Intn(5) {
			case 0:
				weights[i] = 0
			case 1:
				weights[i] = -rng.Float64()
			case 2:
				weights[i] = math.Ldexp(1, -rng.Intn(1074))
			default:
				weights[i] = rng.Float64() * 100
			}
		}
		weights[rng.Intn(len(weights))] = 1 + rng.Float64()
		w := NewWeighted(New(1), weights)
		thr := w.Thresholds()
		cdf := floatWeightedCDF(weights)
		for i, c := range cdf {
			if want := uint64(c * (1 << 53)); thr[i] != want {
				t.Fatalf("weights %v: threshold %d is %d, float CDF %v gives %d", weights, i, thr[i], c, want)
			}
		}
		checkSearch(t, cdf, thr, rng.Uint64()>>11)
	}
}

// TestCoinThreshold checks x < CoinThreshold(p) against x/2^53 < p at
// the threshold's boundaries and at the ends of the draw range, for
// tiny, ordinary and near-1 probabilities and the no-draw values.
func TestCoinThreshold(t *testing.T) {
	rng := New(73)
	ps := []float64{5e-324, 1e-300, 0x1p-53, 0x1p-54, 0.5, 0.35, 1 - 0x1p-53, math.Nextafter(1, 0), 0.999,
		0, -1, 1, 2, math.Inf(1), math.Inf(-1), math.NaN()}
	for i := 0; i < 2000; i++ {
		ps = append(ps, rng.Float64(), math.Ldexp(rng.Float64(), -rng.Intn(1074)))
	}
	for _, p := range ps {
		thr := CoinThreshold(p)
		if thr > unit {
			t.Fatalf("p=%v: threshold %d above 2^53", p, thr)
		}
		for _, x := range []uint64{0, unit - 1, thr - 1, thr, thr + 1} {
			if x >= unit {
				continue
			}
			if got, want := x < thr, float64(x)/(1<<53) < p; got != want {
				t.Fatalf("p=%v threshold %d draw %d: integer coin %v, float coin %v", p, thr, x, got, want)
			}
		}
	}
}

// FuzzThresholdSearch builds a Weighted sampler from fuzzed weights
// (each byte a weight: small integers, zeros and powers of two down to
// the subnormals) and checks its thresholds and search against the
// float CDF at the fuzzed draw and at every threshold's boundary, and a
// coin with the fuzzed probability at its boundary.
func FuzzThresholdSearch(f *testing.F) {
	f.Add([]byte{1, 0, 3}, uint64(12345), 0.25)
	f.Add([]byte{0, 0, 255, 7, 200, 0}, uint64(1)<<52, 1e-300)
	f.Add([]byte{9}, uint64(0), 0.9999999999999999)
	f.Fuzz(func(t *testing.T, data []byte, x uint64, p float64) {
		if len(data) == 0 || len(data) > 256 {
			return
		}
		weights := make([]float64, len(data))
		positive := false
		for i, b := range data {
			if b < 128 {
				weights[i] = float64(b)
			} else {
				weights[i] = math.Ldexp(1, -8*int(b-128))
			}
			positive = positive || weights[i] > 0
		}
		if !positive {
			return
		}
		x >>= 11
		thr := NewWeighted(New(1), weights).Thresholds()
		cdf := floatWeightedCDF(weights)
		for i, c := range cdf {
			if want := uint64(c * (1 << 53)); thr[i] != want {
				t.Fatalf("weights %v: threshold %d is %d, float CDF %v gives %d", weights, i, thr[i], c, want)
			}
		}
		checkSearch(t, cdf, thr, x)
		ct := CoinThreshold(p)
		for _, y := range []uint64{x, ct - 1, ct, ct + 1} {
			if y < unit && (y < ct) != (float64(y)/(1<<53) < p) {
				t.Fatalf("p=%v threshold %d draw %d: integer and float coins disagree", p, ct, y)
			}
		}
	})
}
