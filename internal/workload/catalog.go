package workload

import (
	"fmt"
	"sort"

	"tppsim/internal/mem"
	"tppsim/internal/metrics"
)

// DefaultTotalPages is the default scaled working-set size: 96k logical
// 4 KB pages (384 MB). The paper's machines hold hundreds of GB; all
// ratios (2:1, 1:4, hot fractions) are preserved under the scaling.
const DefaultTotalPages = 96 * 1024

// Web1 models the HHVM-based web service (§3.1): a long file-I/O warm-up
// loads the VM binary and bytecode (filling memory with file cache, much
// of it dirty), then anon usage grows slowly as request handling ramps
// (Fig. 9a), with a hot short-lived request-allocation churn pool. Anon
// pages are much hotter than file pages (Fig. 8); ~80% of pages are
// re-accessed within ten minutes (Fig. 11).
func Web1(total uint64) *Profile {
	return &Profile{
		PName: "Web1",
		// Calibrated so an all-CXL working set costs ~18% throughput
		// (the paper's worst default-Linux regression band).
		TM:     metrics.ThroughputModel{CPUServiceNs: 280, StallsPerOp: 1},
		Warmup: 2 * TicksPerMinute,
		WSS:    total,
		Specs: []RegionSpec{
			{
				// The initialization file flood that "fills up the local
				// node" (§6.1.1): large, fast, and mostly dirty (bytecode
				// caches are written as they are compiled), so default
				// reclaim pays writeback while TPP just migrates.
				Name: "file-bytecode", Type: mem.File,
				Pages:  total * 85 / 100,
				Weight: 0.10, WarmupWeight: 0.85,
				HotFraction: 0.08, HotWeight: 0.95, // 3-14% of files hot (Fig. 8)
				DirtyProb:       0.96,
				PrefaultPerTick: total*85/100/(2*TicksPerMinute) + 1,
			},
			{
				// Continuous bytecode-cache refresh: dirty file pages keep
				// arriving faster than writeback-bound default reclaim can
				// retire them, so the local node never recovers without
				// migration-based demotion (§6.1.1's 44x story).
				Name: "file-cache-churn", Type: mem.File,
				Pages:  total * 5 / 100,
				Weight: 0.02, WarmupWeight: 0.005,
				DirtyProb:     0.8,
				ChurnSegments: 8, ChurnTicks: 12,
				RecencyBias: 0.4,
			},
			{
				Name: "anon-heap", Type: mem.Anon,
				Pages:       total * 30 / 100,
				Weight:      0.55,
				HotFraction: 0.45, HotWeight: 0.96, // 35-60% of anons hot
				GrowthPerTick: float64(total*30/100) / (60 * TicksPerMinute),
			},
			{
				Name: "anon-request", Type: mem.Anon,
				Pages:  total * 6 / 100,
				Weight: 0.30, WarmupWeight: 0.02,
				ChurnSegments: 16, ChurnTicks: 4, // ~1 minute lifetime
				RecencyBias: 0.5,
				BurstProb:   0.05, BurstMul: 4,
			},
			{
				Name: "file-cold", Type: mem.File,
				Pages:  total * 1 / 100,
				Weight: 0.05, ZipfS: 0.3, DirtyProb: 0.3,
			},
		},
	}
}

// Web2 models the Python-based web service: same broad shape as Web1 with
// a smaller VM image and more request churn.
func Web2(total uint64) *Profile {
	return &Profile{
		PName:  "Web2",
		TM:     metrics.ThroughputModel{CPUServiceNs: 400, StallsPerOp: 1},
		Warmup: 2 * TicksPerMinute,
		WSS:    total,
		Specs: []RegionSpec{
			{
				Name: "file-modules", Type: mem.File,
				Pages:  total * 62 / 100,
				Weight: 0.08, WarmupWeight: 0.8,
				HotFraction: 0.10, HotWeight: 0.95,
				DirtyProb:       0.7,
				PrefaultPerTick: total*62/100/(2*TicksPerMinute) + 1,
			},
			{
				Name: "file-cache-churn", Type: mem.File,
				Pages:         total * 5 / 100,
				Weight:        0.02,
				DirtyProb:     0.8,
				ChurnSegments: 8, ChurnTicks: 10,
				RecencyBias: 0.4,
			},
			{
				Name: "anon-heap", Type: mem.Anon,
				Pages:  total * 28 / 100,
				Weight: 0.55, HotFraction: 0.45, HotWeight: 0.96,
				GrowthPerTick: float64(total*28/100) / (45 * TicksPerMinute),
			},
			{
				Name: "anon-request", Type: mem.Anon,
				Pages:  total * 8 / 100,
				Weight: 0.32, WarmupWeight: 0.02,
				ChurnSegments: 16, ChurnTicks: 3,
				RecencyBias: 0.5, BurstProb: 0.08, BurstMul: 3,
			},
			{
				Name: "file-cold", Type: mem.File,
				Pages:  total * 1 / 100,
				Weight: 0.05, ZipfS: 0.3,
			},
		},
	}
}

// Cache1 models the tmpfs-backed distributed cache (§3.3): file (tmpfs)
// pages dominate allocation (~76%) and contribute significant hot
// traffic (≈25% of tmpfs hot per 2 minutes vs ≈40% of anons); the
// anon/file mix is steady over time (Fig. 9b).
func Cache1(total uint64) *Profile {
	return &Profile{
		PName:  "Cache1",
		TM:     metrics.ThroughputModel{CPUServiceNs: 600, StallsPerOp: 1},
		Warmup: 5 * TicksPerMinute,
		Specs: []RegionSpec{
			{
				Name: "tmpfs-store", Type: mem.Tmpfs,
				Pages:  total * 76 / 100,
				Weight: 0.50, WarmupWeight: 0.9,
				HotFraction: 0.16, HotWeight: 0.97, // ~25% of tmpfs pages carry the traffic
				PrefaultPerTick: total*76/100/(5*TicksPerMinute) + 1,
			},
			{
				Name: "anon-query", Type: mem.Anon,
				Pages:       total * 13 / 100,
				Weight:      0.34,
				HotFraction: 0.40, HotWeight: 0.97, // ~40% of anons hot
				PrefaultPerTick: total*13/100/(5*TicksPerMinute) + 1,
			},
			{
				// Request-processing allocations: short-lived and hot
				// (the allocation bursts of §5.2 / Fig. 17).
				Name: "anon-request", Type: mem.Anon,
				Pages:         total * 5 / 100,
				Weight:        0.08,
				ChurnSegments: 12, ChurnTicks: 10,
				RecencyBias: 0.6, BurstProb: 0.05, BurstMul: 4,
			},
			{
				Name: "file-misc", Type: mem.File,
				Pages:  total * 6 / 100,
				Weight: 0.08, ZipfS: 0.5, DirtyProb: 0.4,
			},
		},
	}
}

// Cache2 models the second cache variant: more anon traffic (43% of anons
// hot within a minute vs 30% of files), only ~75% of anons hot within two
// minutes, so TPP finds demotable anon pages (§6.1.1).
func Cache2(total uint64) *Profile {
	return &Profile{
		PName:  "Cache2",
		TM:     metrics.ThroughputModel{CPUServiceNs: 800, StallsPerOp: 1},
		Warmup: 5 * TicksPerMinute,
		Specs: []RegionSpec{
			{
				Name: "tmpfs-store", Type: mem.Tmpfs,
				Pages:  total * 62 / 100,
				Weight: 0.42, WarmupWeight: 0.85,
				HotFraction: 0.28, HotWeight: 0.96, // ~30% of tmpfs hot per minute
				PrefaultPerTick: total*70/100/(5*TicksPerMinute) + 1,
			},
			{
				Name: "anon-query", Type: mem.Anon,
				Pages:       total * 24 / 100,
				Weight:      0.50,
				HotFraction: 0.75, HotWeight: 0.97, // 75% of anons hot per 2 min
				PrefaultPerTick: total*24/100/(5*TicksPerMinute) + 1,
			},
			{
				Name: "file-misc", Type: mem.File,
				Pages:  total * 6 / 100,
				Weight: 0.08, ZipfS: 0.5, DirtyProb: 0.4,
			},
		},
	}
}

// Warehouse models the Data Warehouse compute engine: anon dominates
// (~85%), most anons are *newly allocated* rather than re-accessed
// (Fig. 11: only ~20% re-access), file pages hold written-back
// intermediate data and stay cold (Fig. 9d). Performance is compute-bound
// (§6.1.1: default Linux already within 1%).
func Warehouse(total uint64) *Profile {
	return &Profile{
		PName:  "Warehouse",
		TM:     metrics.ThroughputModel{CPUServiceNs: 3000, StallsPerOp: 1},
		Warmup: 3 * TicksPerMinute,
		Specs: []RegionSpec{
			{
				Name: "anon-compute", Type: mem.Anon,
				Pages:         total * 80 / 100,
				Weight:        0.85,
				ChurnSegments: 24, ChurnTicks: 30, // ~12 minute lifetimes
				RecencyBias: 0.6, BurstProb: 0.04, BurstMul: 3,
			},
			{
				Name: "anon-static", Type: mem.Anon,
				Pages:  total * 5 / 100,
				Weight: 0.05, HotFraction: 0.5, HotWeight: 0.9,
			},
			{
				Name: "file-intermediate", Type: mem.File,
				Pages:  total * 15 / 100,
				Weight: 0.10, ZipfS: 1.2, DirtyProb: 0.9,
			},
		},
	}
}

// Ads models the Ads ranking services (Ads1-3 differ in skew): compute
// heavy, in-memory data retrieval, anons hot and files cold (Fig. 8).
func Ads(variant int, total uint64) *Profile {
	hot := []float64{0.50, 0.40, 0.30}[(variant-1)%3]
	return &Profile{
		PName:  fmt.Sprintf("Ads%d", variant),
		TM:     metrics.ThroughputModel{CPUServiceNs: 1500, StallsPerOp: 1},
		Warmup: 3 * TicksPerMinute,
		Specs: []RegionSpec{
			{
				Name: "anon-model", Type: mem.Anon,
				Pages:  total * 60 / 100,
				Weight: 0.80, HotFraction: hot, HotWeight: 0.92,
			},
			{
				Name: "file-features", Type: mem.File,
				Pages:  total * 40 / 100,
				Weight: 0.20, ZipfS: 1.2, DirtyProb: 0.5,
			},
		},
	}
}

// Profiles maps the paper's workload names to their Profile
// constructors. Catalog holds every one of them too.
var Profiles = map[string]func(total uint64) *Profile{
	"Web1":      Web1,
	"Web2":      Web2,
	"Cache1":    Cache1,
	"Cache2":    Cache2,
	"Warehouse": Warehouse,
	"Ads1":      func(t uint64) *Profile { return Ads(1, t) },
	"Ads2":      func(t uint64) *Profile { return Ads(2, t) },
	"Ads3":      func(t uint64) *Profile { return Ads(3, t) },
}

// Catalog maps workload names to constructors, for the CLI tools. Every
// value builds a fresh Workload per call; entries are either the paper's
// Profile workloads (Profiles) or trace-backed scenarios registered by
// other packages (internal/trace adds its generated scenarios via
// Register).
var Catalog = func() map[string]func(total uint64) Workload {
	c := make(map[string]func(total uint64) Workload, len(Profiles))
	for name, ctor := range Profiles {
		c[name] = func(total uint64) Workload { return ctor(total) }
	}
	return c
}()

// Register adds (or replaces) a catalog entry. Packages providing
// non-Profile workloads — trace replays, generated scenarios — use it to
// appear in the CLI catalogs alongside the paper's workloads.
func Register(name string, ctor func(total uint64) Workload) {
	Catalog[name] = ctor
}

// Names returns the catalog keys sorted.
func Names() []string {
	out := make([]string, 0, len(Catalog))
	for k := range Catalog {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
