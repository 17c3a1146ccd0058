// Package metrics provides the measurement side of the simulator: per-tick
// accumulators, time series for the paper's figures, percentile helpers,
// and the analytic throughput model that converts average memory access
// latency into application-level throughput.
//
// Throughput model. The paper's own latency sweep (Fig. 16) shows
// throughput loss tracking average memory access latency, which motivates
// the classic stall model:
//
//	opTime = CPUServiceNs + StallsPerOp × avgAccessLatencyNs + stallShare
//
// where stallShare folds in direct-reclaim stalls and major-fault time the
// OS charged to the workload. Throughput is reported normalized to an
// all-local baseline exactly as the paper does ("Throughput (%)
// normalized to Baseline", Table 1). CPUServiceNs/StallsPerOp are
// calibrated per workload — they set how memory-bound the application is,
// not who wins.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"tppsim/internal/fault"
	"tppsim/internal/probe"
	"tppsim/internal/series"
	"tppsim/internal/tracker"
	"tppsim/internal/vmstat"
)

// ThroughputModel holds a workload's calibration constants.
type ThroughputModel struct {
	// CPUServiceNs is the pure-compute time per application operation.
	CPUServiceNs float64
	// StallsPerOp is the average number of memory accesses that stall the
	// core (LLC misses) per operation.
	StallsPerOp float64
}

// OpTimeNs returns the modeled time per operation given the observed
// average access latency and the per-op share of OS-charged stall time.
func (m ThroughputModel) OpTimeNs(avgLatencyNs, stallSharePerOpNs float64) float64 {
	return m.CPUServiceNs + m.StallsPerOp*avgLatencyNs + stallSharePerOpNs
}

// Normalized returns throughput relative to a baseline whose every access
// hits local memory at baseLatencyNs with no OS stalls.
func (m ThroughputModel) Normalized(avgLatencyNs, stallSharePerOpNs, baseLatencyNs float64) float64 {
	base := m.OpTimeNs(baseLatencyNs, 0)
	cur := m.OpTimeNs(avgLatencyNs, stallSharePerOpNs)
	if cur <= 0 {
		return 0
	}
	return base / cur
}

// Tick accumulates one simulator tick's events. The simulator's access
// stream is a *sample* of the application's real traffic: per-access load
// latencies go to LatencySumNs, while per-page event costs (faults,
// migrations, reclaim stalls) go to EventNs — those events happen once
// per page regardless of access rate, so they are amortized over the real
// access rate (sampled accesses × scale) when computing averages.
type Tick struct {
	Accesses      uint64  // sampled memory accesses
	LocalAccesses uint64  // of which served by a local node
	LatencySumNs  float64 // summed pure load latency of sampled accesses
	EventNs       float64 // summed per-page event costs (faults, migrations)
	StallNs       float64 // OS stall charged to the workload (majors + direct reclaim)
	AllocPages    uint64  // pages allocated this tick
	AllocLocal    uint64  // of which on a local node
	PromotedPages uint64
	DemotedPages  uint64
}

// LocalFraction returns the fraction of accesses served locally.
func (t Tick) LocalFraction() float64 {
	if t.Accesses == 0 {
		return 0
	}
	return float64(t.LocalAccesses) / float64(t.Accesses)
}

// AvgLatencyNs returns the effective mean access latency this tick: mean
// sampled load latency plus event costs amortized over the real access
// rate (sampled × scale).
func (t Tick) AvgLatencyNs(scale float64) float64 {
	if t.Accesses == 0 {
		return 0
	}
	if scale < 1 {
		scale = 1
	}
	return t.LatencySumNs/float64(t.Accesses) + t.EventNs/(float64(t.Accesses)*scale)
}

// Series is one named time series (a figure line).
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Append adds a point.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.Y) }

// Mean returns the arithmetic mean of Y (0 for empty series).
func (s *Series) Mean() float64 { return Mean(s.Y) }

// Tail returns the mean of the last frac portion of the series — the
// steady-state value after convergence. frac in (0, 1].
func (s *Series) Tail(frac float64) float64 {
	if len(s.Y) == 0 {
		return 0
	}
	start := int(float64(len(s.Y)) * (1 - frac))
	if start < 0 {
		start = 0
	}
	if start >= len(s.Y) {
		start = len(s.Y) - 1
	}
	return Mean(s.Y[start:])
}

// Percentile returns the p-th percentile (p in [0,100]) of Y.
func (s *Series) Percentile(p float64) float64 { return Percentile(s.Y, p) }

// Mean returns the arithmetic mean of xs (0 for empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks. Returns NaN for empty input; p is clamped to
// [0, 100].
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	p = math.Min(100, math.Max(0, p))
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Run aggregates a whole simulation run: the per-tick series plus final
// scalar results.
type Run struct {
	Policy   string
	Workload string

	// Per-tick series; X is simulated minutes.
	LocalTraffic   Series // fraction of accesses served locally (Fig. 14)
	AvgLatency     Series // ns (Fig. 16a)
	AllocRate      Series // MB/s of new allocations
	LocalAllocRate Series // MB/s of allocations landing on the local node (Fig. 17a)
	PromotionRate  Series // KB/s promoted (Fig. 17b)
	DemotionRate   Series // KB/s demoted
	Throughput     Series // normalized instantaneous throughput
	AnonResidency  Series // fraction of anon pages on local nodes
	MigrationRate  Series // MB/s total migration traffic (§7 check)
	UtilTotal      Series // resident pages / total capacity (Fig. 9)
	UtilAnon       Series // anon resident / total capacity
	UtilFile       Series // file+tmpfs resident / total capacity

	// Scalars.
	NormalizedThroughput float64 // run-level, the Table 1 number
	AvgLocalTraffic      float64
	AvgLatencyNs         float64
	Failed               bool // AutoTiering crash (Table 1 "Fails")
	FailReason           string

	// Nodes is the per-node end-of-run accounting from the machine's
	// node-indexed vmstat plane, in node-ID order. Summing a counter
	// over Nodes reproduces the run's global value exactly. Populated
	// for failed runs too.
	Nodes []NodeResult

	// NodeSeries is the per-tick per-node plane: every node's vmstat
	// counter deltas per sample window plus its residency levels at each
	// window end, sampled by the machine when Config.SampleEveryTicks is
	// set (nil otherwise). It is the single per-tick representation —
	// trace.Stats reconstructs the identical series from a recorded
	// trace without re-running the machine.
	NodeSeries *series.Series

	// LatencyHist is the distribution plane's histogram set — per-node
	// access latency, migration costs by direction, allocstall durations,
	// reclaim scan batches — recorded when Config.ProbeLatency is set
	// (nil otherwise).
	LatencyHist *probe.LatencySet
	// PhaseProfile is the tick-phase wall-clock profile, recorded when
	// Config.ProbePhases is set (nil otherwise). Its durations are host
	// wall-clock and therefore nondeterministic; everything else in the
	// Run stays bit-identical.
	PhaseProfile *probe.PhaseProfiler
	// FaultLog lists every fault edge the fault plane applied during
	// the run, in application order. Empty for faults-off runs.
	FaultLog []fault.Occurrence
	// Tracker is the sampled-tracking plane's end-of-run summary —
	// overhead (scanned pages/tick), region adaptation, mover volume,
	// and, when the oracle ran, hot-set precision/recall against exact
	// access counts. Nil for tracker-off runs.
	Tracker *tracker.RunStats

	// MemStats is the simulator's own memory footprint at end of run —
	// the scaling story for terabyte-scale machines. Always populated.
	MemStats MemStats
}

// MemStats reports how much memory the simulator itself spent modeling
// the machine: the page-table representation (extents + records + rmap
// in extent mode, the dense maps otherwise), the page store, and the
// headline bytes-per-simulated-resident-page ratio. Extent counts and
// split/merge totals are zero in dense mode.
type MemStats struct {
	// Extents is the number of live extents in the page table at end of
	// run (0 in dense mode).
	Extents int
	// Splits and Merges are the cumulative extent split/merge totals —
	// the same churn the extent_split/extent_merge vmstat counters carry.
	Splits uint64
	Merges uint64
	// FramePages is the base pages per store PFN (1, or 512 with
	// HugePages).
	FramePages uint64
	// ResidentPages is the simulated resident footprint in base pages at
	// end of run.
	ResidentPages uint64
	// TableBytes and StoreBytes are the page table's and page store's
	// simulator memory, counted at slice capacity.
	TableBytes uint64
	StoreBytes uint64
	// BytesPerPage is (TableBytes+StoreBytes)/ResidentPages — the
	// scaling headline (0 when nothing is resident).
	BytesPerPage float64
}

// NodeResult is one memory node's end-of-run accounting: identity,
// residency, and its slice of the vmstat plane.
type NodeResult struct {
	ID   int
	Kind string // "local" or "cxl"
	Tier int    // distance-derived tier rank; 0 is the CPU tier

	CapacityPages uint64
	ResidentPages uint64
	ResidentAnon  uint64
	ResidentFile  uint64 // file + tmpfs
	LoadLatencyNs float64

	// Counters is the node's vmstat snapshot (see the vmstat package
	// doc for which node each event is charged to).
	Counters vmstat.Snapshot
}

// Get returns one of the node's counters by enum.
func (n NodeResult) Get(c vmstat.Counter) uint64 { return n.Counters.Get(c) }

// String renders the headline scalars.
func (r *Run) String() string {
	if r.Failed {
		return fmt.Sprintf("%s/%s: FAILS (%s)", r.Workload, r.Policy, r.FailReason)
	}
	return fmt.Sprintf("%s/%s: throughput=%.1f%% local=%.1f%% lat=%.0fns",
		r.Workload, r.Policy, 100*r.NormalizedThroughput, 100*r.AvgLocalTraffic, r.AvgLatencyNs)
}
