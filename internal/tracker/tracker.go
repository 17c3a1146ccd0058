// Package tracker implements sampled access tracking — the imperfect
// observation plane real tiering daemons operate on, in contrast to the
// ground-truth state (exact hint faults, exact LRU order) the repo's
// other policies read. The pipeline is modeled on memtierd's:
//
//	Tracker ──counters──▶ Heatmap ──(HeatForecaster)──▶ Mover
//
// A Tracker watches the access stream through a cheap per-access hook
// and periodically folds what it saw into a Heatmap (per-PFN-range heat
// with half-life decay). A heat policy classifies ranges hot/warm/cold,
// and a rate-limited Mover migrates pages hot-up/cold-down through the
// ordinary migration engine — so tracker-driven movement pays the same
// costs, honors the same watermarks, and survives the same injected
// faults as every other mechanism.
//
// Three trackers mirror the kernel mechanisms the TPP paper contrasts
// against:
//
//   - idlepage: periodic scan-and-clear of per-page accessed bits.
//     Sees every touched page, but a scan visits the whole PFN space —
//     overhead grows with memory size.
//   - softdirty: the same scan over write bits only. Cheap to maintain
//     in a real kernel (no PTE young harvesting), but blind to clean
//     reads — a hot read-only set is invisible.
//   - damon: adaptive region sampling with a fixed per-tick sampling
//     budget. Regions split and merge by access-count similarity, so
//     overhead is constant regardless of memory size and accuracy
//     depends on how well region boundaries track the working set.
//
// All tracker state is PFN-indexed: the PFN is the simulator's stable
// page identity (migration changes a page's node, never its PFN), and
// the PFN space is bounded by machine capacity, so bitmaps and region
// lists are fixed-size — the plane allocates nothing per tick.
package tracker

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"tppsim/internal/mem"
	"tppsim/internal/migrate"
	"tppsim/internal/tier"
	"tppsim/internal/vmstat"
)

// Tracker is one sampled access-tracking mechanism. Implementations
// observe the access stream via OnAccess and fold what they saw into a
// heatmap on their own scan cadence.
type Tracker interface {
	// Name returns the registry kind ("idlepage", "softdirty", ...).
	Name() string
	// Start binds the tracker to a machine. Called once before any
	// OnAccess or Tick.
	Start(env Env) error
	// Stop releases the tracker; no further calls after it.
	Stop()
	// OnAccess observes one CPU access to pfn; pg must be pfn's page.
	// It must be cheap — it runs inside the fused access loop.
	OnAccess(pfn mem.PFN, pg *mem.Page)
	// Tick advances the scan clock. When a scan/aggregation boundary is
	// due the tracker folds its counters into hm (opening a new decay
	// window first) and reports true.
	Tick(tick uint64, hm *Heatmap) bool
}

// Env is what a tracker (and the mover) gets to see of the machine.
type Env struct {
	Store *mem.Store
	Topo  *tier.Topology
	Stat  *vmstat.NodeStats
	// Engine is the migration engine, set only when a mover runs.
	Engine *migrate.Engine
	// Bits is the shared accessed-bit substrate the plane maintains on
	// the hot path; bit trackers scan it, damon samples it.
	Bits *AccessBits
	// Seed feeds tracker-private randomness (damon's region sampling).
	// Trackers must never touch machine RNG streams.
	Seed uint64
}

// pfnSpace returns the size of the PFN space trackers cover: the
// machine's total capacity. The store grows lazily as the workload
// allocates (Store.Len is a high-water mark, zero at build time), so
// fixed-size tracker state must size from capacity and bound store
// lookups by the live Store.Len.
func (e Env) pfnSpace() int { return int(e.Topo.TotalCapacity()) }

// Config selects and tunes the observation plane. The zero Kind means
// the plane is off: no tracker, no hook, bit- and alloc-identical runs.
type Config struct {
	// Kind is the registered tracker ("idlepage", "softdirty", "damon").
	Kind string
	// ScanEveryTicks is the scan (idlepage/softdirty) or aggregation
	// (damon) interval in ticks. Default 16.
	ScanEveryTicks uint64
	// GranularityPages is the tracking granule of the bit trackers: one
	// accessed bit covers this many contiguous PFNs. Must be a power of
	// two. Coarser granules shrink scan cost and accuracy together.
	// Default 1. Ignored by damon (it always samples single pages).
	GranularityPages int
	// RegionBudget caps damon's region count (its fixed overhead knob).
	// Default 128.
	RegionBudget int
	// SamplesPerTick is damon's per-tick sampling budget. Default equals
	// RegionBudget (one sample per region per tick).
	SamplesPerTick int
	// HalflifeTicks is the heatmap's decay half-life. Default 64.
	HalflifeTicks float64
	// RangePages is the heatmap range size in PFNs; must be a power of
	// two and at least GranularityPages. Default 64.
	RangePages int
	// Oracle enables the ground-truth accuracy oracle: exact per-PFN
	// access counts per scan window, scored against the tracker's
	// hot-set (precision/recall in RunStats). Costs one counter bump
	// per access — leave off for benchmarks.
	Oracle bool
	// Seed overrides the tracker-private RNG seed; 0 derives one from
	// the machine seed.
	Seed uint64
}

// On reports whether the plane is enabled.
func (c Config) On() bool { return c.Kind != "" }

// WithDefaults fills zero fields.
func (c Config) WithDefaults() Config {
	if c.ScanEveryTicks == 0 {
		c.ScanEveryTicks = 16
	}
	if c.GranularityPages == 0 {
		c.GranularityPages = 1
	}
	if c.RegionBudget == 0 {
		c.RegionBudget = 128
	}
	if c.SamplesPerTick == 0 {
		c.SamplesPerTick = c.RegionBudget
	}
	if c.HalflifeTicks == 0 {
		c.HalflifeTicks = 64
	}
	if c.RangePages == 0 {
		c.RangePages = 64
	}
	return c
}

// Validate rejects configurations the plane cannot run.
func (c Config) Validate() error {
	if !c.On() {
		return nil
	}
	d := c.WithDefaults()
	if _, ok := kinds[d.Kind]; !ok {
		return fmt.Errorf("tracker: unknown kind %q (have %s)", d.Kind, strings.Join(KindNames(), ", "))
	}
	if d.GranularityPages&(d.GranularityPages-1) != 0 || d.GranularityPages < 1 {
		return fmt.Errorf("tracker: granularity %d is not a power of two", d.GranularityPages)
	}
	if d.RangePages&(d.RangePages-1) != 0 || d.RangePages < 1 {
		return fmt.Errorf("tracker: range %d is not a power of two", d.RangePages)
	}
	if d.RangePages < d.GranularityPages {
		return fmt.Errorf("tracker: range %d smaller than granularity %d", d.RangePages, d.GranularityPages)
	}
	if d.RegionBudget < 2 {
		return fmt.Errorf("tracker: region budget %d too small", d.RegionBudget)
	}
	if d.SamplesPerTick < 1 {
		return fmt.Errorf("tracker: samples per tick %d is not positive", d.SamplesPerTick)
	}
	// Written so a NaN half-life fails too.
	if !(d.HalflifeTicks > 0) || math.IsInf(d.HalflifeTicks, 1) {
		return fmt.Errorf("tracker: half-life %g must be finite and positive", d.HalflifeTicks)
	}
	return nil
}

// PolicyConfig is the heat-policy half of the pipeline: how heatmap
// ranges classify into hot/warm/cold and how fast the mover may act on
// that. It is carried by the sampled placement policy, separate from
// the observation Config, mirroring memtierd's tracker/policy split.
type PolicyConfig struct {
	// HotThreshold: a range whose per-page heat (EWMA fraction of its
	// pages touched per scan window, in [0,1]) is at or above this is
	// hot. Default 0.40.
	HotThreshold float64
	// ColdThreshold: per-page heat at or below this is cold; between
	// the thresholds is warm (hysteresis — the mover leaves warm ranges
	// alone). Default 0.05.
	ColdThreshold float64
	// PagesPerTick is the mover's migration-attempt budget per tick.
	// Default 128.
	PagesPerTick int
	// Forecast chains the trend forecaster between heatmap and mover:
	// classification sees heat extrapolated one window ahead.
	Forecast bool
}

// WithDefaults fills zero fields.
func (p PolicyConfig) WithDefaults() PolicyConfig {
	if p.HotThreshold == 0 {
		p.HotThreshold = 0.40
	}
	if p.ColdThreshold == 0 {
		p.ColdThreshold = 0.05
	}
	if p.PagesPerTick == 0 {
		p.PagesPerTick = 128
	}
	return p
}

// Class is a range's heat classification.
type Class uint8

const (
	Cold Class = iota
	Warm
	Hot
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case Cold:
		return "cold"
	case Warm:
		return "warm"
	default:
		return "hot"
	}
}

// Classify maps a per-page heat value to a class.
func (p PolicyConfig) Classify(heatPerPage float64) Class {
	switch {
	case heatPerPage >= p.HotThreshold:
		return Hot
	case heatPerPage <= p.ColdThreshold:
		return Cold
	default:
		return Warm
	}
}

// kinds is the tracker registry.
var kinds = map[string]struct {
	description string
	build       func(Config) Tracker
}{
	"idlepage": {
		"periodic scan-and-clear of per-page accessed bits; sees reads and writes, scan cost grows with memory size",
		func(c Config) Tracker { return newBitTracker("idlepage", c, false) },
	},
	"softdirty": {
		"periodic scan of write bits only; cheap but blind to clean reads",
		func(c Config) Tracker { return newBitTracker("softdirty", c, true) },
	},
	"damon": {
		"adaptive region sampling on a fixed per-tick budget; regions split/merge by access similarity",
		func(c Config) Tracker { return newDamon(c) },
	},
}

// KindNames returns the registered tracker kinds, sorted.
func KindNames() []string {
	out := make([]string, 0, len(kinds))
	for k := range kinds {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Describe returns a registered kind's one-line description.
func Describe(kind string) string { return kinds[kind].description }

// New builds the configured tracker.
func New(cfg Config) (Tracker, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return kinds[cfg.Kind].build(cfg), nil
}

// Spec renders the config as a compact spec string,
// "kind:scan=16,gran=1,regions=128,samples=128,halflife=64,range=64",
// the format -tracker accepts and the trace header carries. The zero
// config renders as "".
func (c Config) Spec() string {
	if !c.On() {
		return ""
	}
	d := c.WithDefaults()
	s := fmt.Sprintf("%s:scan=%d,gran=%d,regions=%d,samples=%d,halflife=%g,range=%d",
		d.Kind, d.ScanEveryTicks, d.GranularityPages, d.RegionBudget,
		d.SamplesPerTick, d.HalflifeTicks, d.RangePages)
	if d.Oracle {
		s += ",oracle=1"
	}
	if d.Seed != 0 {
		s += fmt.Sprintf(",seed=%d", d.Seed)
	}
	return s
}

// ParseSpec parses a spec string back into a Config. A bare kind
// ("idlepage") takes every default; parameters follow after a colon as
// comma-separated key=value pairs. "" parses to the off config.
func ParseSpec(spec string) (Config, error) {
	if spec == "" {
		return Config{}, nil
	}
	var c Config
	kind, params, _ := strings.Cut(spec, ":")
	c.Kind = kind
	if params != "" {
		for _, kv := range strings.Split(params, ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return Config{}, fmt.Errorf("tracker spec: malformed parameter %q", kv)
			}
			var err error
			switch k {
			case "scan":
				c.ScanEveryTicks, err = strconv.ParseUint(v, 10, 64)
			case "gran":
				c.GranularityPages, err = strconv.Atoi(v)
			case "regions":
				c.RegionBudget, err = strconv.Atoi(v)
			case "samples":
				c.SamplesPerTick, err = strconv.Atoi(v)
			case "halflife":
				c.HalflifeTicks, err = strconv.ParseFloat(v, 64)
			case "range":
				c.RangePages, err = strconv.Atoi(v)
			case "oracle":
				c.Oracle = v == "1" || v == "true"
			case "seed":
				c.Seed, err = strconv.ParseUint(v, 10, 64)
			default:
				return Config{}, fmt.Errorf("tracker spec: unknown parameter %q", k)
			}
			if err != nil {
				return Config{}, fmt.Errorf("tracker spec: parameter %q: %v", kv, err)
			}
		}
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}
