// Package experiments regenerates every table and figure of the paper's
// characterization (§3) and evaluation (§6). Each experiment is a named
// function from Options to a Result holding a rendered table and any
// figure series as CSV. The registry is consumed by cmd/experiments,
// the root bench harness, and EXPERIMENTS.md.
//
// Absolute values are simulator-scale; what each experiment is expected
// to reproduce is the paper's *shape* — who wins, by roughly what factor,
// and where mechanisms break — recorded per experiment in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"

	"tppsim/internal/core"
	"tppsim/internal/metrics"
	"tppsim/internal/report"
	"tppsim/internal/sim"
	"tppsim/internal/tier"
	"tppsim/internal/workload"
)

// Options scale an experiment run.
type Options struct {
	// Pages is the working-set size in 4 KB pages (default 32768; the
	// calibration scale).
	Pages uint64
	// Minutes is the run length (default 60).
	Minutes int
	// Seed is the base random seed (default 1).
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.Pages == 0 {
		o.Pages = 32 * 1024
	}
	if o.Minutes == 0 {
		o.Minutes = 60
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Validate reports options no experiment can run with: a negative
// Minutes, or a Pages at which one of the paper's workloads
// (workload.Profiles) has a region of no pages. Zero fields take their
// defaults first. It builds no machine, so a CLI can check its flags
// before the first run.
func (o Options) Validate() error {
	if o.Minutes < 0 {
		return fmt.Errorf("experiments: Minutes is %d; want >= 0 (0 means the default)", o.Minutes)
	}
	o = o.withDefaults()
	names := make([]string, 0, len(workload.Profiles))
	for name := range workload.Profiles {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := workload.Profiles[name](o.Pages).Validate(); err != nil {
			return fmt.Errorf("experiments: %d pages: %w", o.Pages, err)
		}
	}
	return nil
}

// Quick returns reduced options for benchmarks and smoke tests.
func Quick() Options { return Options{Pages: 8 * 1024, Minutes: 20} }

// Result is one regenerated artifact.
type Result struct {
	ID      string
	Caption string
	Table   *report.Table
	// Series holds named CSV blocks for figure lines.
	Series map[string]string
}

// Spec is a registry entry.
type Spec struct {
	ID      string
	Caption string
	Run     func(Options) Result
}

// Registry lists every experiment in paper order.
func Registry() []Spec {
	return []Spec{
		{"Fig2", "Latency characteristics of memory technologies", Fig2},
		{"Fig3", "Memory as a share of rack TCO and power across generations", Fig3},
		{"Fig4", "Memory bandwidth and capacity scaling over DRAM generations", Fig4},
		{"Fig5", "CXL system vs dual-socket server", Fig5},
		{"Fig7", "Application memory hot over last N minutes", Fig7},
		{"Fig8", "Anon pages are hotter than file pages", Fig8},
		{"Fig9", "Memory usage over time per page type", Fig9},
		{"Fig10", "Throughput sensitivity to anon/file utilization", Fig10},
		{"Fig11", "Fraction of pages re-accessed at different intervals", Fig11},
		{"Table1", "Throughput normalized to all-local baseline", Table1},
		{"Fig14", "Local-traffic fraction over time (2:1)", Fig14},
		{"Fig15", "TPP under memory constraint (1:4)", Fig15},
		{"Fig16", "TPP with varied CXL-Memory latencies", Fig16},
		{"Fig17", "Impact of decoupling allocation and reclamation", Fig17},
		{"Fig18", "Active-LRU-based hot-page detection", Fig18},
		{"Table2", "Page-type-aware allocation", Table2},
		{"Fig19", "TPP vs NUMA Balancing vs AutoTiering", Fig19},
		{"Table3", "TMO enhances TPP", Table3},
		{"Table4", "TPP enhances TMO", Table4},
		{"X1", "Active-LRU ablation scalars (§6.2)", X1},
		{"X2", "Reclaim speed: migration vs default reclaim (§5.1)", X2},
		{"X3", "Steady-state migration bandwidth (§7)", X3},
		{"MT1", "Throughput vs memory-tier depth (multi-hop expander)", MT1},
		{"MT2", "Per-node flows across share mixes and distance matrices", MT2},
		{"MT3", "Dual-socket residency/flows over time (series plane)", MT3},
		{"MT4", "Access-latency CDFs per policy across topologies (probe plane)", MT4},
		{"MT5", "Policy resilience under injected faults (fault plane)", MT5},
		{"MT6", "Sampled trackers: overhead vs accuracy vs throughput (tracker plane)", MT6},
	}
}

// RunAll executes specs concurrently on a bounded worker pool and
// returns their results in spec order, so output is deterministic
// regardless of completion order. workers <= 0 means runtime.NumCPU.
// Every simulation is seeded independently of scheduling, so results
// are identical to a sequential run.
func RunAll(specs []Spec, o Options, workers int) []Result {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	results := make([]Result, len(specs))
	if len(specs) == 0 {
		return results
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstPanic any
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				func() {
					defer func() {
						if p := recover(); p != nil {
							// Capture the failing spec and its original
							// stack; the re-panic below happens on the
							// caller's goroutine, which would otherwise
							// lose both.
							mu.Lock()
							if firstPanic == nil {
								firstPanic = fmt.Sprintf("experiment %s: %v\n%s",
									specs[i].ID, p, debug.Stack())
							}
							mu.Unlock()
						}
					}()
					results[i] = specs[i].Run(o)
				}()
			}
		}()
	}
	for i := range specs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if firstPanic != nil {
		// Preserve the sequential runner's contract: a failing
		// experiment panics out of RunAll.
		panic(firstPanic)
	}
	return results
}

// Find returns the spec with the given ID.
func Find(id string) (Spec, bool) {
	for _, s := range Registry() {
		if s.ID == id {
			return s, true
		}
	}
	return Spec{}, false
}

// IDs returns all experiment IDs in order.
func IDs() []string {
	specs := Registry()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.ID
	}
	return out
}

// run executes one scenario on the local:CXL ratio box and returns
// (machine, results).
func run(o Options, policy core.Policy, wlName string, ratio [2]uint64, cfgMut ...func(*sim.Config)) (*sim.Machine, *metrics.Run) {
	cfg := sim.Config{
		Seed:     o.Seed,
		Policy:   policy,
		Workload: workload.Catalog[wlName](o.Pages),
		Topology: tier.PresetCXL(ratio[0], ratio[1]),
		Minutes:  o.Minutes,
	}
	for _, mut := range cfgMut {
		mut(&cfg)
	}
	m, err := sim.New(cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return m, m.Run()
}

// sortedKeys returns map keys in sorted order (deterministic rendering).
func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
