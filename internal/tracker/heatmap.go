package tracker

import (
	"math"

	"tppsim/internal/mem"
)

// AccessBits is the shared accessed-bit substrate: one bit per tracking
// granule of the PFN space, set on access, cleared by whoever harvests
// it (the bit trackers' scans, damon's samples). It models the hardware
// PTE young/dirty bits every real tracker ultimately reads. Granule
// must be a power of two; the PFN space is fixed, so the bitmap is too.
type AccessBits struct {
	words    []uint64
	granule  int
	shift    uint
	granules int
}

// NewAccessBits sizes a bitmap for totalPFNs pages at the given granule.
func NewAccessBits(totalPFNs, granule int) *AccessBits {
	shift := uint(0)
	for 1<<shift < granule {
		shift++
	}
	granules := (totalPFNs + granule - 1) / granule
	return &AccessBits{
		words:    make([]uint64, (granules+63)/64),
		granule:  granule,
		shift:    shift,
		granules: granules,
	}
}

// Granule returns the granule size in pages.
func (b *AccessBits) Granule() int { return b.granule }

// NumGranules returns the number of tracked granules.
func (b *AccessBits) NumGranules() int { return b.granules }

// Set marks pfn's granule accessed.
func (b *AccessBits) Set(pfn mem.PFN) {
	i := uint32(pfn) >> b.shift
	b.words[i>>6] |= 1 << (i & 63)
}

// Test reports whether pfn's granule is marked.
func (b *AccessBits) Test(pfn mem.PFN) bool {
	i := uint32(pfn) >> b.shift
	return b.words[i>>6]&(1<<(i&63)) != 0
}

// TestClear reads and clears pfn's granule, returning its state.
func (b *AccessBits) TestClear(pfn mem.PFN) bool {
	i := uint32(pfn) >> b.shift
	mask := uint64(1) << (i & 63)
	set := b.words[i>>6]&mask != 0
	b.words[i>>6] &^= mask
	return set
}

// harvest clears the bits of the granules below total PFNs and folds
// each set granule's page count into hm, in PFN order: gain*pages per
// granule, the last granule short when total ends inside it. The adds
// land in the same order as one granule at a time, so every range's
// heat is the same to the bit; only the host work differs. The bitmap
// is read a word at a time and empty words are skipped. A word's bits
// split into chunks of the granules that share a heat range (the whole
// word when a range spans 64 granules or more), and each chunk's adds
// run on the range's heat in a register, one per set bit.
func (b *AccessBits) harvest(total int, hm *Heatmap) {
	granules := (total + b.granule - 1) >> b.shift
	if granules == 0 {
		return
	}
	words := b.words[:(granules+63)>>6]
	last := len(words) - 1
	lastMask := ^uint64(0) >> (63 - uint(granules-1)&63)
	short := total & (b.granule - 1) // pages of a short last granule
	shortBit := uint64(0)
	if short != 0 {
		shortBit = 1 << (uint(granules-1) & 63)
	}
	// Chunk width in bits: granules per range, between one and a word.
	width := uint(min(max(int(hm.rangeShift)-int(b.shift), 0), 6))
	chunkMask := ^uint64(0) >> (64 - 1<<width)
	gain, g, heat := hm.gain, float64(b.granule), hm.heat
	var shortSet bool
	for wi, w := range words {
		if wi == last {
			w &= lastMask
		}
		if w == 0 {
			continue
		}
		words[wi] &^= w
		if wi == last {
			// The short granule's add is the span's last; it comes
			// after the loop.
			shortSet = w&shortBit != 0
			w &^= shortBit
		}
		for gi := wi << 6; w != 0; gi, w = gi+1<<width, w>>(1<<width) {
			c := w & chunkMask
			if c == 0 {
				continue
			}
			r := gi << b.shift >> hm.rangeShift
			h := heat[r]
			for ; c != 0; c &= c - 1 {
				h += gain * g
			}
			heat[r] = h
		}
	}
	if shortSet {
		heat[(granules-1)<<b.shift>>hm.rangeShift] += gain * float64(short)
	}
}

// Heatmap aggregates tracker observations into per-PFN-range heat. Heat
// is an exponentially-weighted moving average of the fraction-of-range
// touched per scan window, scaled by range size: a range's heat sits in
// [0, rangePages], and heat/rangePages is the per-page touch likelihood
// the policy classifies on. The EWMA factor comes from the configured
// half-life, applied once per window at fold time — between folds the
// map is immutable, so reads are race-free against the hot path.
type Heatmap struct {
	rangePages int
	rangeShift uint
	halflife   float64
	heat       []float64
	totalPFNs  int

	// decay/gain for the current window, set by BeginWindow.
	gain float64
}

// NewHeatmap sizes a heatmap for totalPFNs pages with the given range
// size (a power of two) and decay half-life in ticks.
func NewHeatmap(totalPFNs, rangePages int, halflifeTicks float64) *Heatmap {
	shift := uint(0)
	for 1<<shift < rangePages {
		shift++
	}
	n := (totalPFNs + rangePages - 1) / rangePages
	return &Heatmap{
		rangePages: rangePages,
		rangeShift: shift,
		halflife:   halflifeTicks,
		heat:       make([]float64, n),
		totalPFNs:  totalPFNs,
	}
}

// NumRanges returns the number of heat ranges.
func (h *Heatmap) NumRanges() int { return len(h.heat) }

// RangePages returns the range size in pages.
func (h *Heatmap) RangePages() int { return h.rangePages }

// RangeOf returns the range index covering pfn.
func (h *Heatmap) RangeOf(pfn mem.PFN) int { return int(uint32(pfn) >> h.rangeShift) }

// RangeSpan returns the PFN bounds [start, end) of range r; the last
// range may be short.
func (h *Heatmap) RangeSpan(r int) (start, end int) {
	start = r << h.rangeShift
	end = start + h.rangePages
	if end > h.totalPFNs {
		end = h.totalPFNs
	}
	return start, end
}

// BeginWindow opens a fold window spanning windowTicks: existing heat
// decays by the half-life factor and subsequent Add calls carry the
// complementary EWMA gain, keeping heat in touched-pages units.
func (h *Heatmap) BeginWindow(windowTicks float64) {
	d := math.Pow(0.5, windowTicks/h.halflife)
	for i := range h.heat {
		h.heat[i] *= d
	}
	h.gain = 1 - d
}

// Add folds touchedPages observed this window into range r.
func (h *Heatmap) Add(r int, touchedPages float64) {
	h.heat[r] += h.gain * touchedPages
}

// Heat returns range r's heat in touched-pages units.
func (h *Heatmap) Heat(r int) float64 { return h.heat[r] }

// HeatPerPage returns range r's per-page heat in [0, ~1].
func (h *Heatmap) HeatPerPage(r int) float64 {
	s, e := h.RangeSpan(r)
	if e <= s {
		return 0
	}
	return h.heat[r] / float64(e-s)
}

// Heats returns the live heat slice (read-only for callers).
func (h *Heatmap) Heats() []float64 { return h.heat }

// HeatForecaster transforms the heatmap's per-range heat before the
// policy classifies it; forecasters chain, each reading the previous
// output. dst and cur have NumRanges elements.
type HeatForecaster interface {
	Forecast(dst, cur []float64)
}

// TrendForecaster extrapolates each range's heat one window ahead from
// its last delta — the simplest useful forecaster: a range that is
// heating classifies hot a window early, one that is cooling drops out
// early, at the cost of overshoot on noisy ranges.
type TrendForecaster struct {
	prev []float64
}

// NewTrendForecaster returns a trend forecaster for n ranges.
func NewTrendForecaster(n int) *TrendForecaster {
	return &TrendForecaster{prev: make([]float64, n)}
}

// Forecast writes cur + (cur - prev) into dst, clamped at zero, and
// remembers cur for the next window.
func (f *TrendForecaster) Forecast(dst, cur []float64) {
	for i, c := range cur {
		v := c + (c - f.prev[i])
		if v < 0 {
			v = 0
		}
		dst[i] = v
		f.prev[i] = c
	}
}
