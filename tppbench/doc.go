// Command tppbench is tppsim's benchmark. It runs five workloads through
// the tppsim API from one serial process, measures end-to-end metrics
// with tracing off, and in a separate traced run splits host time and
// simulated work across the simulator's layers. It lives in its own
// module (tppsim/tppbench, replacing tppsim with the parent directory),
// so editing the simulator cannot edit what the benchmark measures.
//
// # Running
//
//	sh tppbench/run.sh --workload steady-small --seed 1 --seconds 10 --trace 0
//	cd tppbench && go run . -workload all
//	cd tppbench && go run . -workload steady-small,huge-tb -trace 1 -spans /tmp/spans.json
//
// run.sh builds the binary and its Go build cache under .bench_build/ at
// the repository root, then runs it with the given flags:
//
//   - -workload: a name, comma-separated names, or all (the default).
//   - -seed: the input seed (default 1). It seeds every machine.
//   - -seconds: the measured length (default 10). Machine workloads step a
//     fixed number of ticks per second of it, so two commits always step
//     the same ticks.
//   - -trace: 0 prints the end-to-end metrics, 1 runs the traced pass and
//     prints the per-layer metrics.
//   - -spans: with -trace 1, also write the spans and per-tick phase
//     columns to a JSON file.
//
// Each metric prints as "<workload> <metric> <value> <unit>". Lines
// starting with "#" carry the run digest, the sweep's Table 1 rows, the
// tick counts, and the tracing overhead. The last line is one JSON
// object {"correct", "attempted", "failed", "metrics"}. With several
// workloads its metric keys read "<workload>/<metric>". The exit code is
// 0 when every run is correct, 1 when one is not, and 2 on bad flags.
//
// # Workloads
//
// All five are closed loops. One goroutine calls Machine.Step back to
// back with Workers unset. Machine workloads build their machine and step
// 600 warm-up ticks before measuring, past every profile's fill phase.
//
//   - steady-small: Cache1 over 8K pages under TPP on the 2:1 CXL box,
//     2,000 accesses a tick, 12,000 ticks per second of -seconds. It fits
//     in cache and its daemons are near idle, so the access path (draw,
//     translate, charge) is over 90% of a tick. Per-access overheads show
//     here; reclaim and numab changes should not move it.
//   - churn-large: Cache1 over 512K pages, 8,192 accesses a tick, 1,000
//     ticks per second. Its 28 MB of simulator state is 14 times the
//     per-core cache, and request churn allocates and frees ~250 pages a
//     tick. The dense page table, the fault path and the numab scan (a
//     third of a tick, and the whole tail) dominate.
//   - huge-tb: ~1.15 TB in 2 MB frames over the extent page table, a
//     192 GB heap prefaulted during set-up, 8,192 accesses a tick, 4,000
//     ticks per second. It is the only workload on the extent table and
//     the huge-frame paths, and no reclaim runs. A dense-table change
//     should not move it; an extent-table change should not move the
//     others.
//   - tiered-pressure: Warehouse over 64K pages on the 3-tier expander
//     (1:2:2) with the idlepage tracker on, 4,096 accesses a tick, 3,000
//     ticks per second. It shares steady-small's access path but writes:
//     every tick allocates ~80 pages and migrates ~90, through the
//     reclaim cascade, numab hint faults and the tracker plane.
//   - table1-sweep: the paper's Table 1, 22 machines under Default Linux,
//     TPP, NUMA Balancing and AutoTiering, 32K pages, 60 simulated minutes
//     each at -seconds 10 (15 in the traced pass). Each machine is built,
//     stepped from tick 0 and finished, in table order. It is the headline
//     a user reproduces and the only workload on the baseline policies.
//     Its rows must equal the experiments registry's Table 1 (pinned by
//     TestSweepIsTable1).
//
// # End-to-end metrics
//
// Measured with tracing off. The bound is the share of the parent's median
// by which a metric may worsen before a change counts as a regression.
//
//   - accesses_per_s (1/s, higher, 25%): simulated accesses per host
//     second of Step, from the configured accesses per tick.
//   - tick_us_p50 (us, lower, 25%): median host µs per Step.
//   - tick_us_p99 (us, lower, 25%): the 99th percentile; at least 25
//     timed ticks lie beyond it on every workload.
//   - setup_s (s, lower, 25%): building the machines plus their warm-up,
//     the median of at least three set-ups (cheap ones repeat for half a
//     second, up to 15 times).
//   - heap_mb (MB, lower, 5%): the live Go heap after a forced collection
//     at the end of the window: the last machine, without the benchmark's
//     buffers.
//   - bytes_per_page (B, lower, 5%): simulator bytes (page table and page
//     store) per simulated resident page, over all of a run's machines.
//
// Failed operations are the JSON's "failed" out of "attempted" ticks.
//
// # How timings are taken
//
// Every Step is timed. Two kinds of host noise are taken out. On a shared
// 2-vCPU Xeon host, together they moved a plain median by 20-35% from run
// to run. With both corrections, the quartile spread of each timing over
// ten seeds was 2-8% in quiet periods and up to 14% in a busier one; in
// a period of heavy contention it still reached 34%.
//
//   - A co-tenant contending for the caches slows every Step by up to 60%
//     for seconds at a time. The window is cut into about 100 chunks of
//     ticks per machine, and the timings come from the fastest quarter of
//     each machine's chunks, ranked by their median Step. This holds
//     while a quarter of each machine's window ran quietly.
//   - The core's clock moves in steps of about 3.5% as co-tenants load
//     the package, shifting whole runs by up to 15%. A fixed loop of
//     multiply-adds that touches no memory runs before each set-up and
//     chunk; every host time is reported at the clock where that loop
//     takes 136 µs (its median on that host), that is, multiplied by
//     136 µs over the run's median loop time.
//
// Counts, digests and sizes cover every tick.
//
// # Correctness
//
// After each window the benchmark hashes the simulated outputs with
// FNV-64a: every node's vmstat counters, the figure series in
// Machine.Results, the extent, split, merge and resident counts, and for
// the sweep the rendered table. The run is correct when:
//
//   - every set-up reaches the same digest after warm-up;
//   - a second machine, stepped from the first set-up, reaches the digest
//     the measured machine has a twentieth into its window;
//   - in the traced run, the profiled pass reaches the unprofiled pass's
//     digest;
//   - for seeds 1 and 2 at the declared lengths, the digest equals the one
//     committed in digest.go (other seeds print "unchecked");
//   - every machine conserves pages, no vmstat counter goes backwards, and
//     no machine fails, except the sweep's AutoTiering 1:4 runs, which
//     Table 1 reports as "Fails".
//
// Any failure fails every tick of the run. The model is not validated
// against hardware, so the benchmark reports no accuracy error.
//
// # Per-layer metrics
//
// The traced run steps a quarter of the window twice, unprofiled and then
// with MachineConfig.ProbePhases on. Its numbers come from outside the
// layers:
//
//   - Phase times from the phase profiler (Machine.Probes().Prof), read
//     per tick, averaged over the timed ticks: workload.tick_us,
//     workload.draw_us, pagetable.translate_us, sim.charge_us,
//     reclaim.tick_us and numab.tick_us (with their _p99), control.tick_us
//     (AutoTiering, TMO and the tracker plane) and metrics.fold_us. The
//     phases partition Step: sim.phase_share, their sum over sim.tick_us,
//     stays near 1.
//   - Timers the benchmark wraps around single layer calls after the
//     traced window and its digest: workload.draw_ns_per_access
//     (NextAccessBatch), pagetable.translate_ns_per_access
//     (AddressSpace().TranslateBatch), migrate.ns_per_page
//     (Engine().Migrate, demoting then promoting drawn pages) and
//     series.observe_ns (a series.Sampler observing the machine).
//   - Set-up: sim.new_s and sim.warm_s split setup_s.
//   - Simulated work from vmstat deltas over the window, which repeat
//     exactly for a seed: alloc.pages_per_tick, alloc.stalls_per_tick,
//     reclaim.scanned_per_tick, reclaim.yield ((steal + demote) / scanned),
//     migrate.pages_per_tick, migrate.fail_ratio,
//     numab.hint_faults_per_tick, numab.promote_yield (promoted / hint
//     faults), numab.pingpong_ratio (promoted pages that had been demoted
//     / promoted), tracker.pages_scanned_per_tick and lru.rotated_per_tick.
//   - go.allocs_per_tick (Go heap allocations per tick) and trace.overhead
//     (unprofiled over profiled accesses_per_s, also printed as a "#"
//     line).
//
// Host times among them are scaled to the nominal clock like the
// end-to-end ones, and the phase times cover the same timed ticks.
//
// What each should move: draw and translate move accesses_per_s, and are
// largest on steady-small and tiered-pressure. The extent table's
// translate shows only on huge-tb. sim.charge_us moves tick_us_p50 on
// steady-small and huge-tb; per-access observers add to it on
// tiered-pressure. workload.tick_us (churn and faulting touches) matters
// on churn-large and huge-tb. reclaim.* moves tick_us_p99 on
// tiered-pressure. numab.* moves tick_us_p99 and accesses_per_s on
// churn-large. control.tick_us matters on tiered-pressure and the sweep.
// metrics.fold_us and series.observe_ns should move no end-to-end metric.
// sim.warm_s dominates setup_s on huge-tb and churn-large.
//
// # Trace file
//
// -spans writes a JSON array with one object per traced workload:
//
//	{"workload": "steady-small", "seed": 1, "seconds": 2.5,
//	 "spans": [{"id": 1, "parent": 0, "name": "run", "start_us": 0, "end_us": 5321.7}, ...],
//	 "ticks": {"leg": [0, ...], "step_ns": [...], "phase_ns": {"workload": [...], "draw": [...], ...}}}
//
// Spans are the benchmark's steps (run; setup/untraced, window/untraced,
// setup/traced, window/traced; timer/draw, timer/translate,
// timer/migrate, timer/series), timed in µs from the run's start, each
// naming its parent span. The tick columns hold one entry per tick of the
// traced window: the leg (machine) index, the host ns of the Step, and
// the host ns of each phase, which together fall short of the Step only
// by the time outside the profiled phases. Column times are as measured,
// not scaled to the nominal clock.
//
// # Claiming a gain
//
// A change that claims a gain does not edit this benchmark. Build the
// parent and the change, then run at least ten pairs, alternating which
// side runs first, with the same flags and seeds other than 2; then
// confirm on seed 2, held out while the change was written. Claim a gain
// only when the change wins at least nine pairs in ten and the medians
// differ by more than the parent's own quartile spread. Check every other
// workload and end-to-end metric against its bound. Use the per-layer
// metrics to show where the saving sits.
package main
