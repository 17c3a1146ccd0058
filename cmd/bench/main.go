// Command bench runs the simulator's core-loop benchmarks (the same
// machines and warm-up as BenchmarkSimTick / BenchmarkSimTickSampled /
// BenchmarkSimTickProbed / BenchmarkSimTickTracked / BenchmarkSimTickHuge
// in bench_test.go) and writes the results to
// BENCH_simtick.json, the
// repo's performance-trajectory artifact. Run it from the repo root
// after perf-relevant changes:
//
//	go run ./cmd/bench            # writes ./BENCH_simtick.json
//	go run ./cmd/bench -o out.json
//
// The artifact records the runner's CPU count and the *resolved* worker
// count each field ran with. The parallel field resolves WorkersAuto to
// GOMAXPROCS, so under 4 usable CPUs the run is (nearly) serial and its
// ns/op says nothing about sharding: parallel_ns_per_op is then written
// as null, not applicable.
//
// With -check it instead compares fresh measurements against the
// committed baseline and exits non-zero when:
//
//   - sampling-off ns/op regressed more than -tolerance (default 15%)
//     against the committed baseline, or its allocs/op grew;
//   - sampling-on ticks cost more than the sampling-off ticks by more
//     than -sampled-tolerance (default 10%) — a relative gate measured
//     in the same process, so it is hardware-independent;
//   - probes-on (latency histograms + phase profiler) ticks cost more
//     than the probe-off ticks by more than -probed-tolerance (default
//     10%), or its allocs/op grew at all;
//   - tracker-on (idlepage sampled tracking) ticks cost more than the
//     tracker-off ticks by more than -tracked-tolerance (default 10%),
//     or its allocs/op grew at all;
//   - the terabyte-scale huge-page run (BenchmarkSimTickHuge) spends
//     more than tppsim.SimTickHugeBytesPerPageMax simulator bytes per
//     simulated resident page — the extent table's footprint contract,
//     hardware-independent like the alloc gates;
//   - on machines with ≥ 4 CPUs, the parallel large-machine run
//     (Workers=GOMAXPROCS, BenchmarkSimTickParallel) fails to beat the
//     serial large-machine run's ns/op — the parallel sim core must
//     pay for itself where it claims to (results are bit-identical
//     either way, so only wall-clock is at stake). Under 4 CPUs the
//     gate is skipped (and says so): there is nothing to shard onto.
//
// The three overhead gates compare paired rounds, not one run of each
// side: one plain and one feature machine are built and warmed once,
// then each of overheadRounds rounds steps both for overheadBlock ticks,
// alternating which goes first, so host noise falls on both sides
// alike. Every round's feature/plain ratio is printed and the gate
// reads their median.
//
// Checking does not overwrite the baseline; refresh it with a plain run
// when a slowdown is intentional and explained.
//
//	go run ./cmd/bench -check
//	go run ./cmd/bench -check -baseline BENCH_simtick.json -tolerance 0.15
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"tppsim"
	"tppsim/internal/prof"
)

// overheadRounds and overheadBlock size the paired overhead measurement:
// each round steps the plain and the feature machine overheadBlock ticks
// each.
const (
	overheadRounds = 11
	overheadBlock  = 200
)

// warmMachine builds a machine and steps it past its fill phase, as
// BenchmarkSimTick does.
func warmMachine(cfg tppsim.MachineConfig) (*tppsim.Machine, error) {
	m, err := tppsim.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < tppsim.SimTickBenchWarmTicks; i++ {
		m.Step()
	}
	if failed, why := m.Failed(); failed {
		return nil, fmt.Errorf("machine failed during warm-up: %s", why)
	}
	return m, nil
}

// pairedOverhead measures what a feature costs per tick over the plain
// machine it extends (see the package doc): it prints every round's
// feature/plain time ratio and returns their median.
func pairedOverhead(name string, plain, feature tppsim.MachineConfig) (float64, error) {
	var ms [2]*tppsim.Machine
	for k, cfg := range []tppsim.MachineConfig{plain, feature} {
		m, err := warmMachine(cfg)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ms[k] = m
	}
	ratios := make([]float64, overheadRounds)
	var b strings.Builder
	for r := range ratios {
		var ns [2]time.Duration
		for k := range ms {
			side := k ^ r%2 // the plain machine goes first in even rounds
			start := time.Now()
			for range overheadBlock {
				ms[side].Step()
			}
			ns[side] = time.Since(start)
		}
		ratios[r] = float64(ns[1]) / float64(ns[0])
		fmt.Fprintf(&b, " %+.1f%%", 100*(ratios[r]-1))
	}
	fmt.Printf("%s rounds (%d ticks per side each):%s\n", name, overheadBlock, b.String())
	slices.Sort(ratios)
	return ratios[len(ratios)/2], nil
}

func main() {
	out := flag.String("o", "BENCH_simtick.json", "output JSON path")
	check := flag.Bool("check", false, "compare against the committed baseline instead of writing it")
	baseline := flag.String("baseline", "BENCH_simtick.json", "baseline JSON path for -check")
	tolerance := flag.Float64("tolerance", 0.15, "allowed ns/op regression fraction for -check")
	sampledTol := flag.Float64("sampled-tolerance", 0.10, "allowed sampling-on overhead fraction vs sampling-off for -check")
	probedTol := flag.Float64("probed-tolerance", 0.10, "allowed probes-on overhead fraction vs probes-off for -check")
	trackedTol := flag.Float64("tracked-tolerance", 0.10, "allowed tracker-on overhead fraction vs tracker-off for -check")
	cpuProf := flag.String("cpuprofile", "", "write a Go CPU profile to FILE")
	memProf := flag.String("memprofile", "", "write a Go heap profile to FILE at exit")
	flag.Parse()

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
	}()

	// lastMachine is the machine of the most recent bench invocation —
	// read right after bench() returns for end-state reports (the huge
	// run's footprint).
	var lastMachine *tppsim.Machine
	bench := func(cfg tppsim.MachineConfig) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			m, err := warmMachine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			lastMachine = m
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Step()
			}
		})
	}
	nsOf := func(r testing.BenchmarkResult) float64 {
		return float64(r.T.Nanoseconds()) / float64(r.N)
	}
	res := bench(tppsim.SimTickBenchConfig())
	nsPerOp := nsOf(res)
	resSampled := bench(tppsim.SimTickBenchSampledConfig())
	nsSampled := nsOf(resSampled)
	resProbed := bench(tppsim.SimTickBenchProbedConfig())
	nsProbed := nsOf(resProbed)
	resTracked := bench(tppsim.SimTickBenchTrackedConfig())
	nsTracked := nsOf(resTracked)
	resLarge := bench(tppsim.SimTickBenchLargeConfig())
	nsLarge := nsOf(resLarge)
	resParallel := bench(tppsim.SimTickBenchParallelConfig())
	nsParallel := nsOf(resParallel)
	resHuge := bench(tppsim.SimTickBenchHugeConfig())
	nsHuge := nsOf(resHuge)
	hugeStats := lastMachine.MemStats()

	// The resolved worker counts each field actually ran with (the
	// parallel config's WorkersAuto resolves per host), plus the host's
	// CPU count — without these the parallel field is uninterpretable on
	// small runners.
	cpus := runtime.NumCPU()
	parallelWorkers := tppsim.ResolveWorkers(tppsim.SimTickBenchParallelConfig().Workers)
	largeWorkers := tppsim.ResolveWorkers(tppsim.SimTickBenchLargeConfig().Workers)

	if *check {
		raw, err := os.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		var base struct {
			NsPerOp     float64 `json:"ns_per_op"`
			AllocsPerOp int64   `json:"allocs_per_op"`
		}
		if err := json.Unmarshal(raw, &base); err != nil || base.NsPerOp <= 0 {
			fmt.Fprintf(os.Stderr, "bench: bad baseline %s: %v\n", *baseline, err)
			os.Exit(1)
		}
		if nsPerOp > base.NsPerOp*(1+*tolerance) {
			// ns/op is hardware- and noise-sensitive; before failing,
			// re-measure once and take the better run so a noisy-neighbor
			// blip on a shared runner does not block an unchanged build.
			if again := bench(tppsim.SimTickBenchConfig()); again.T.Nanoseconds() > 0 {
				if v := nsOf(again); v < nsPerOp {
					nsPerOp = v
				}
			}
		}
		ratio := nsPerOp / base.NsPerOp
		fmt.Printf("SimTick: %.0f ns/op vs baseline %.0f ns/op (%+.1f%%, tolerance %.0f%%); %d allocs/op vs %d\n",
			nsPerOp, base.NsPerOp, 100*(ratio-1), 100**tolerance, res.AllocsPerOp(), base.AllocsPerOp)
		overhead := func(name string, feature tppsim.MachineConfig) float64 {
			r, err := pairedOverhead(name, tppsim.SimTickBenchConfig(), feature)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			return r
		}
		sampledRatio := overhead("SimTickSampled", tppsim.SimTickBenchSampledConfig())
		probedRatio := overhead("SimTickProbed", tppsim.SimTickBenchProbedConfig())
		trackedRatio := overhead("SimTickTracked", tppsim.SimTickBenchTrackedConfig())
		fmt.Printf("SimTickSampled: %.0f ns/op; median %+.1f%% vs sampling off over %d rounds (tolerance %.0f%%); %d allocs/op\n",
			nsSampled, 100*(sampledRatio-1), overheadRounds, 100**sampledTol, resSampled.AllocsPerOp())
		fmt.Printf("SimTickProbed: %.0f ns/op; median %+.1f%% vs probes off over %d rounds (tolerance %.0f%%); %d allocs/op\n",
			nsProbed, 100*(probedRatio-1), overheadRounds, 100**probedTol, resProbed.AllocsPerOp())
		fmt.Printf("SimTickTracked: %.0f ns/op; median %+.1f%% vs tracker off over %d rounds (tolerance %.0f%%); %d allocs/op\n",
			nsTracked, 100*(trackedRatio-1), overheadRounds, 100**trackedTol, resTracked.AllocsPerOp())
		failed := false
		if ratio > 1+*tolerance {
			// Persistently over tolerance: either a real regression or a
			// baseline captured on faster hardware — refresh the baseline
			// (and say so in the commit) rather than loosening the gate.
			fmt.Fprintf(os.Stderr, "bench: SimTick ns/op regressed beyond tolerance; "+
				"if intentional, refresh %s with `go run ./cmd/bench` and explain in the commit\n", *baseline)
			failed = true
		}
		// allocs/op is hardware-independent, so it gets a tight gate: any
		// growth beyond one stray allocation is a real hot-path change.
		if res.AllocsPerOp() > base.AllocsPerOp+1 {
			fmt.Fprintf(os.Stderr, "bench: SimTick allocs/op grew %d -> %d\n",
				base.AllocsPerOp, res.AllocsPerOp())
			failed = true
		}
		if sampledRatio > 1+*sampledTol {
			fmt.Fprintf(os.Stderr, "bench: series sampling costs %+.1f%% ns/op over sampling-off (limit %.0f%%)\n",
				100*(sampledRatio-1), 100**sampledTol)
			failed = true
		}
		// The sampling hook is amortized over preallocated columns: it
		// must not add steady-state allocations either.
		if resSampled.AllocsPerOp() > res.AllocsPerOp() {
			fmt.Fprintf(os.Stderr, "bench: sampling grew allocs/op %d -> %d\n",
				res.AllocsPerOp(), resSampled.AllocsPerOp())
			failed = true
		}
		if probedRatio > 1+*probedTol {
			fmt.Fprintf(os.Stderr, "bench: probes cost %+.1f%% ns/op over probes-off (limit %.0f%%)\n",
				100*(probedRatio-1), 100**probedTol)
			failed = true
		}
		// Histograms are fixed arrays and the profiler laps into them:
		// probing must not add steady-state allocations.
		if resProbed.AllocsPerOp() > res.AllocsPerOp() {
			fmt.Fprintf(os.Stderr, "bench: probing grew allocs/op %d -> %d\n",
				res.AllocsPerOp(), resProbed.AllocsPerOp())
			failed = true
		}
		if trackedRatio > 1+*trackedTol {
			fmt.Fprintf(os.Stderr, "bench: tracking costs %+.1f%% ns/op over tracker-off (limit %.0f%%)\n",
				100*(trackedRatio-1), 100**trackedTol)
			failed = true
		}
		// The tracker's bitmap, heatmap, and mover scratch are all
		// preallocated at plane build: tracking must not add
		// steady-state allocations.
		if resTracked.AllocsPerOp() > res.AllocsPerOp() {
			fmt.Fprintf(os.Stderr, "bench: tracking grew allocs/op %d -> %d\n",
				res.AllocsPerOp(), resTracked.AllocsPerOp())
			failed = true
		}
		// The terabyte-scale footprint gate: bytes of simulator state per
		// simulated resident base page. Hardware-independent, so no
		// re-measure dance.
		fmt.Printf("SimTickHuge: %.0f ns/op; %.3f simulator bytes/page over %d resident pages (limit %.2f); %d allocs/op\n",
			nsHuge, hugeStats.BytesPerPage, hugeStats.ResidentPages,
			tppsim.SimTickHugeBytesPerPageMax, resHuge.AllocsPerOp())
		if hugeStats.BytesPerPage > tppsim.SimTickHugeBytesPerPageMax {
			fmt.Fprintf(os.Stderr, "bench: huge run spends %.3f simulator bytes per simulated page (limit %.2f)\n",
				hugeStats.BytesPerPage, tppsim.SimTickHugeBytesPerPageMax)
			failed = true
		}
		parallelRatio := nsParallel / nsLarge
		fmt.Printf("SimTickParallel: %.0f ns/op vs serial large %.0f ns/op (%+.1f%%) with %d workers on %d CPUs\n",
			nsParallel, nsLarge, 100*(parallelRatio-1), parallelWorkers, cpus)
		if runtime.GOMAXPROCS(0) >= 4 {
			if parallelRatio >= 1 {
				// Re-measure the pair once before failing, same noise logic.
				off, on := bench(tppsim.SimTickBenchLargeConfig()), bench(tppsim.SimTickBenchParallelConfig())
				if r := nsOf(on) / nsOf(off); r < parallelRatio {
					parallelRatio = r
				}
			}
			if parallelRatio >= 1 {
				fmt.Fprintf(os.Stderr, "bench: parallel sim core (%+.1f%%) does not beat the serial large-machine run on %d CPUs\n",
					100*(parallelRatio-1), runtime.GOMAXPROCS(0))
				failed = true
			}
		} else {
			fmt.Printf("SimTickParallel gate skipped: %d usable CPUs < 4, the parallel run resolved to %d worker(s) — nothing to shard onto\n",
				runtime.GOMAXPROCS(0), parallelWorkers)
		}
		if failed {
			os.Exit(1)
		}
		return
	}

	// Under 4 usable CPUs the parallel run has nothing to shard onto, so
	// its ns/op is recorded as not applicable.
	var parallelNs any = nsParallel
	if runtime.GOMAXPROCS(0) < 4 {
		parallelNs = nil
	}
	report := map[string]any{
		"benchmark":             "SimTick",
		"iterations":            res.N,
		"ns_per_op":             nsPerOp,
		"bytes_per_op":          res.AllocedBytesPerOp(),
		"allocs_per_op":         res.AllocsPerOp(),
		"sampled_ns_per_op":     nsSampled,
		"sampled_allocs_per_op": resSampled.AllocsPerOp(),
		"probed_ns_per_op":      nsProbed,
		"probed_allocs_per_op":  resProbed.AllocsPerOp(),
		"tracked_ns_per_op":     nsTracked,
		"tracked_allocs_per_op": resTracked.AllocsPerOp(),
		"large_ns_per_op":       nsLarge,
		"large_workers":         largeWorkers,
		"parallel_ns_per_op":    parallelNs,
		"parallel_workers":      parallelWorkers,
		"huge_ns_per_op":        nsHuge,
		"huge_allocs_per_op":    resHuge.AllocsPerOp(),
		"huge_bytes_per_page":   hugeStats.BytesPerPage,
		"huge_resident_pages":   hugeStats.ResidentPages,
		"huge_extents":          hugeStats.Extents,
		"cpus":                  cpus,
		"gomaxprocs":            runtime.GOMAXPROCS(0),
		"goos":                  runtime.GOOS,
		"goarch":                runtime.GOARCH,
		"go_version":            runtime.Version(),
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("SimTick: %.0f ns/op, %d B/op, %d allocs/op (%d iterations); sampled %.0f ns/op, %d allocs/op; probed %.0f ns/op, %d allocs/op; tracked %.0f ns/op, %d allocs/op; large %.0f ns/op, parallel %.0f ns/op (%d workers, %d CPUs); huge %.0f ns/op at %.3f bytes/page -> %s\n",
		nsPerOp, res.AllocedBytesPerOp(), res.AllocsPerOp(), res.N,
		nsSampled, resSampled.AllocsPerOp(), nsProbed, resProbed.AllocsPerOp(),
		nsTracked, resTracked.AllocsPerOp(),
		nsLarge, nsParallel, parallelWorkers, cpus, nsHuge, hugeStats.BytesPerPage, *out)
}
