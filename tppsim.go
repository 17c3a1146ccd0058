// Package tppsim is a simulation-based reproduction of "TPP: Transparent
// Page Placement for CXL-Enabled Tiered-Memory" (Maruf et al., ASPLOS
// 2023). It models a CXL tiered-memory machine — NUMA nodes with
// watermarks, per-node LRU lists, a page allocator, kswapd reclaim, page
// migration, and NUMA-balancing hint faults — and implements TPP and the
// paper's baselines (default Linux, NUMA Balancing, AutoTiering, TMO) as
// policies over that machine.
//
// Quick start — machines are described topology-first: pick a preset (or
// declare your own Topology of N nodes with capacities, latencies, and a
// distance matrix) and run a workload under a policy on it:
//
//	wl := tppsim.Workloads["Cache1"](tppsim.DefaultWorkingSet)
//	m, err := tppsim.NewMachine(tppsim.MachineConfig{
//		Policy:   tppsim.TPP(),
//		Workload: wl,
//		Topology: tppsim.TopologyCXL(2, 1), // the paper's box, local:CXL 2:1
//		Minutes:  30,
//	})
//	if err != nil { ... }
//	res := m.Run()
//	fmt.Println(res) // normalized throughput, local traffic, latency
//
// Presets: TopologyCXL is the paper's 2-node machine (and the default
// when no topology is given); TopologyDualSocket is the §7 multi-socket
// system (2 CPU sockets, each with a CXL expander); TopologyExpander is
// a 3-tier multi-hop machine (local DRAM → near CXL → far CXL) on which
// reclaim cascades downward tier by tier and promotion climbs back up
// one hop per NUMA hint fault. Custom machines set Topology.Nodes
// directly — per-node capacity as absolute Pages or working-set ratio
// Shares, kind, load latency, bandwidth — plus a NUMA distance matrix;
// node tiers are derived from each node's distance to the nearest CPU.
//
// The legacy two-node sugar (MachineConfig.Ratio, LocalPages/CXLPages,
// CXLLatencyNs) is deprecated but still works and maps onto
// TopologyCXL; Ratio{2,1} remains the default. Per-node latency
// overrides (MachineConfig.NodeLatencyNs) supersede CXLLatencyNs.
//
// The exported surface is intentionally thin: policies come from
// constructors (TPP, DefaultLinux, ...) with ablation Options; workloads
// come from the Workloads catalog or custom workload.Profile values; the
// experiments registry (Experiments) regenerates every table and figure
// of the paper.
//
// # Record and replay
//
// Any run's access stream can be captured to a compact binary trace and
// deterministically re-driven under every policy — the same stream,
// apples to apples (paths ending in ".gz" are compressed):
//
//	cfg := tppsim.MachineConfig{
//		Policy:   tppsim.DefaultLinux(),
//		Workload: tppsim.Workloads["Cache1"](tppsim.DefaultWorkingSet),
//		Topology: tppsim.TopologyCXL(2, 1),
//	}
//	if _, err := tppsim.Record(cfg, "cache1.trace.gz"); err != nil { ... }
//
//	cfg.Policy = tppsim.TPP()
//	res, err := tppsim.Replay("cache1.trace.gz", cfg)
//
// Replaying with the same policy, seed, and machine configuration as the
// recording reproduces its scalar results exactly. OpenTrace loads a
// trace for inspection or for building custom Replayer workloads (loop,
// truncate). The catalog also carries trace-backed scenarios generated
// by internal/trace ("PhaseShift", "SeqScan", "AdvChurn") that the
// Profile model cannot express.
package tppsim

import (
	"fmt"

	"tppsim/internal/core"
	"tppsim/internal/experiments"
	"tppsim/internal/mem"
	"tppsim/internal/metrics"
	"tppsim/internal/probe"
	"tppsim/internal/report"
	"tppsim/internal/series"
	"tppsim/internal/sim"
	"tppsim/internal/tier"
	"tppsim/internal/trace"
	"tppsim/internal/vmstat"
	"tppsim/internal/workload"
)

// DefaultWorkingSet is the default scaled working-set size in 4 KB pages.
const DefaultWorkingSet = workload.DefaultTotalPages

// Topology declares a machine: N memory nodes with per-node capacity,
// kind, performance traits, and a NUMA distance matrix. Set it on
// MachineConfig.Topology, starting from a preset or from scratch.
type Topology = tier.Spec

// TopologyNode declares one node of a Topology.
type TopologyNode = tier.NodeSpec

// NodeKind distinguishes CPU-attached DRAM from CPU-less CXL memory in
// a TopologyNode.
type NodeKind = mem.NodeKind

// Node kinds for custom topologies.
const (
	KindLocal = mem.KindLocal
	KindCXL   = mem.KindCXL
)

// Topology presets (see internal/tier for the underlying machines).
var (
	// TopologyCXL is the paper's 2-node box: one CPU-attached local node
	// and one CXL node, sized localShare:cxlShare over the working set.
	TopologyCXL = tier.PresetCXL
	// TopologyDualSocket is the §7 multi-socket system: two CPU sockets,
	// each with its own DRAM and CXL expander.
	TopologyDualSocket = tier.PresetDualSocket
	// TopologyExpander is the 3-tier multi-hop machine: local DRAM, a
	// near CXL expander, and a far (switched) CXL expander behind it.
	TopologyExpander = tier.PresetExpander
)

// TopologyPresets lists the preset names usable with TopologyPreset.
func TopologyPresets() []string { return tier.PresetNames() }

// TopologyPreset returns the named preset ("cxl", "dualsocket",
// "expander") with its default shares.
func TopologyPreset(name string) (Topology, bool) { return tier.Preset(name) }

// MachineConfig configures one simulation run; it is sim.Config.
type MachineConfig = sim.Config

// MemStats is the simulator's own end-of-run memory footprint
// (RunResult.MemStats, Machine.MemStats): extent count and split/merge
// churn, page-table and page-store bytes, and the
// bytes-per-simulated-resident-page scaling headline.
type MemStats = metrics.MemStats

// Machine is an assembled tiered-memory machine.
type Machine = sim.Machine

// RunResult carries a run's series and scalar results, including the
// per-node accounting in RunResult.Nodes.
type RunResult = metrics.Run

// NodeResult is one memory node's end-of-run accounting (RunResult.Nodes):
// identity, residency, and its slice of the vmstat plane.
type NodeResult = metrics.NodeResult

// NodeStats is a machine's node-indexed vmstat plane (Machine.Stat): one
// counter set per memory node, with the global view derived as the exact
// sum of the per-node ones.
type NodeStats = vmstat.NodeStats

// VmstatCounter names one observability counter (vmstat.Counter).
type VmstatCounter = vmstat.Counter

// VmstatSnapshot is a point-in-time copy of one counter set — global or
// per-node — indexed by VmstatCounter.
type VmstatSnapshot = vmstat.Snapshot

// NodeTable renders a run's per-node residency and headline counters as
// an aligned text table.
var NodeTable = report.NodeTable

// NodeSeries is the per-tick per-node time-series plane
// (RunResult.NodeSeries): columnar per-node vmstat deltas and residency
// levels per sample window, self-coarsening to a fixed budget. Enable
// it with MachineConfig.SampleEveryTicks; reconstruct it from a
// recorded trace with TraceStats.
type NodeSeries = series.Series

// SeriesLevels is one node's residency snapshot at a series sample
// boundary (total/anon/file resident pages).
type SeriesLevels = series.Levels

// TraceStatsOptions tune TraceStats' series reconstruction (cadence and
// sample budget; match the recording run's to reproduce its live series
// bit-for-bit).
type TraceStatsOptions = trace.StatsOptions

// TraceStats folds a recorded trace's per-node TickEnd payload into a
// NodeSeries without building or running a machine — the pure
// trace-analysis path (cmd/tppsim -trace-stats).
func TraceStats(path string, o TraceStatsOptions) (*NodeSeries, error) {
	tr, err := OpenTrace(path)
	if err != nil {
		return nil, err
	}
	return tr.Stats(o)
}

// Series renderers (see internal/report): an aligned per-window flow
// table, terminal sparklines, the full columnar CSV, and the two-run
// comparative flow diff.
var (
	FlowTable        = report.FlowTable
	SeriesPanel      = report.SeriesPanel
	SeriesColumnsCSV = report.SeriesColumnsCSV
	FlowDiffTable    = report.FlowDiffTable
)

// Histogram is the probe plane's zero-allocation log2-bucketed
// distribution type (exact counts, bucket-bound percentiles).
type Histogram = probe.Histogram

// LatencySet is a run's latency/size histogram collection
// (RunResult.LatencyHist): per-node access latency, migration costs by
// direction, allocstall durations, and reclaim scan batch sizes.
// Enable it with MachineConfig.ProbeLatency.
type LatencySet = probe.LatencySet

// PhaseProfile attributes host wall-clock per tick phase
// (RunResult.PhaseProfile). Enable it with MachineConfig.ProbePhases.
type PhaseProfile = probe.PhaseProfiler

// Probes is a machine's probe plane (Machine.Probes/EnableProbes):
// histograms, the phase profiler, and the typed tracepoint hooks
// (OnDemote, OnPromote, OnAllocStall, OnReclaimWake) subsystems fire
// and callers subscribe to.
type Probes = probe.Probes

// Tracepoint payloads carried by the probe plane's hooks.
type (
	MigrateEvent     = probe.MigrateEvent
	AllocStallEvent  = probe.AllocStallEvent
	ReclaimWakeEvent = probe.ReclaimWakeEvent
)

// Probe-plane renderers (see internal/report): the percentile digest
// table, the tick-phase attribution table, an ASCII histogram panel,
// and per-policy CDF columns as CSV.
var (
	PercentileTable = report.PercentileTable
	PhaseTable      = report.PhaseTable
	HistogramPanel  = report.HistogramPanel
	CDFColumnsCSV   = report.CDFColumnsCSV
	Dur             = report.Dur
)

// Policy is a placement-policy configuration.
type Policy = core.Policy

// PolicyOption is an ablation/extension option for TPP.
type PolicyOption = core.Option

// Workload is the workload interface machines run.
type Workload = workload.Workload

// Profile is the region-based workload implementation, for building
// custom workloads.
type Profile = workload.Profile

// NewMachine assembles a machine.
func NewMachine(cfg MachineConfig) (*Machine, error) { return sim.New(cfg) }

// Policy constructors (see internal/core for details).
var (
	// TPP is the paper's mechanism; options select ablations.
	TPP = core.TPP
	// DefaultLinux is the stock-kernel baseline.
	DefaultLinux = core.DefaultLinux
	// NUMABalancing is classic AutoNUMA.
	NUMABalancing = core.NUMABalancing
	// AutoTiering is the ATC '21 baseline.
	AutoTiering = core.AutoTiering
	// TMOOnly is transparent memory offloading without TPP.
	TMOOnly = core.TMOOnly

	// Ablation options for TPP.
	WithoutDecoupling    = core.WithoutDecoupling
	WithInstantPromotion = core.WithInstantPromotion
	WithPageTypeAware    = core.WithPageTypeAware
	WithTMO              = core.WithTMO
)

// Workloads is the catalog of the paper's production workloads.
var Workloads = workload.Catalog

// WorkloadNames returns the catalog keys sorted.
func WorkloadNames() []string { return workload.Names() }

// Experiments returns the registry of paper tables and figures.
func Experiments() []experiments.Spec { return experiments.Registry() }

// ExperimentOptions scales experiment runs.
type ExperimentOptions = experiments.Options

// RunExperiments executes specs on a bounded worker pool and returns
// results in spec order; workers <= 0 uses all CPUs.
func RunExperiments(specs []experiments.Spec, o ExperimentOptions, workers int) []experiments.Result {
	return experiments.RunAll(specs, o, workers)
}

// Trace is a loaded access trace: header plus encoded event stream.
type Trace = trace.Trace

// TraceHeader describes the workload a trace was captured from.
type TraceHeader = trace.Header

// ReplayOptions tune trace replay (loop, truncate).
type ReplayOptions = trace.ReplayOptions

// OpenTrace loads a trace file (gzip is sniffed and handled). Use
// Trace.Replayer to build Workloads from it.
func OpenTrace(path string) (*Trace, error) { return trace.Load(path) }

// Record runs the configured machine while capturing the workload's
// event stream to path. It returns the run's results; the error reports
// a failure to write the trace (the results remain valid).
func Record(cfg MachineConfig, path string) (*RunResult, error) {
	cfg.RecordTo = path
	m, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	res := m.Run()
	return res, m.RecordError()
}

// Replay loads the trace at path and runs it as cfg's workload; any
// Workload already set in cfg is ignored. At most one ReplayOptions
// value tunes the replay: Loop wraps the trace when the run outlasts it,
// MaxTicks truncates it to a prefix.
//
// When cfg.Minutes is zero the run length defaults to the (truncated)
// trace's own length (not the simulator's 60-minute default), so the
// scalars are never diluted by idle ticks after the trace runs out; set
// Minutes explicitly with Loop to run longer. When cfg specifies no
// machine sizing of its own (no Topology, Ratio, or LocalPages) and the
// trace was recorded by the simulator, the recorded topology is adopted,
// rebuilding the recorded machine exactly. Replaying under the recording
// run's policy, seed, and machine configuration reproduces its scalar
// results exactly; changing the policy replays the identical access
// stream under the new mechanism.
func Replay(path string, cfg MachineConfig, opts ...ReplayOptions) (*RunResult, error) {
	if len(opts) > 1 {
		return nil, fmt.Errorf("tppsim: Replay takes at most one ReplayOptions, got %d", len(opts))
	}
	tr, err := OpenTrace(path)
	if err != nil {
		return nil, err
	}
	var o ReplayOptions
	if len(opts) == 1 {
		o = opts[0]
	}
	if cfg.Minutes == 0 {
		ticks := tr.Ticks()
		if o.MaxTicks > 0 && o.MaxTicks < ticks {
			ticks = o.MaxTicks
		}
		if ticks > 0 {
			cfg.Minutes = int((ticks + workload.TicksPerMinute - 1) / workload.TicksPerMinute)
		}
	}
	if len(cfg.Topology.Nodes) == 0 && cfg.Ratio == [2]uint64{} &&
		cfg.LocalPages == 0 && cfg.CXLPages == 0 && cfg.CXLLatencyNs == 0 {
		// No sizing or legacy latency override of any kind: rebuild the
		// recorded machine. A CXLLatencyNs override keeps the legacy
		// 2-node machine it applies to.
		if ts := tr.Header.Topology; ts != nil {
			cfg.Topology = *ts
		}
	}
	cfg.Workload = tr.Replayer(o)
	m, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	return m.Run(), nil
}
