// The parallel sim core: Config.Workers > 1 shards the expensive,
// side-effect-free front half of each tick's access batch — page-table
// translation and page-line warming — across worker goroutines, while
// every state mutation stays in the serial charge loop in its original
// access order.
//
// Determinism is structural, not reconciled-after-the-fact. The tick
// splits into:
//
//   - a stage phase: the batch is cut into contiguous shards, one per
//     worker; each worker translates its shard into its disjoint range
//     of the shared PFN buffer (TranslateBatchHinted reads the region
//     index, PFN tables and hint bits without mutating them) and sums
//     page flags into private scratch to pull each access's page line
//     toward the cache. Shard scratch merges at the barrier in fixed shard order —
//     and since the only cross-shard accumulator is an integer sum,
//     the merged value is the serial value exactly;
//   - a commit phase: the unchanged fused charge loop walks the PFN
//     buffer front to back, exactly as the serial path does. Latency
//     sums (order-sensitive float adds), LRU aging, hint faults,
//     promotions, demand faults, histograms, tracker hooks, and the
//     generation-counter fallback all execute in canonical batch order
//     = (shard, index) order, untouched by the staging.
//
// So a fixed seed produces bit-identical scalars, vmstat, series,
// probe histograms, and trace bytes for any worker count — pinned by
// TestParallelBitIdentical and the seed-determinism goldens.
//
// Each shard also owns a deterministically derived RNG substream
// (xrand.Substream of the machine seed: jump-derived, so streams are
// reproducible, order-independent, and non-overlapping). The staging
// pass itself draws nothing — today's shard work is pure reads — but
// the substream is the contract for any future shard-local randomness:
// it must come from the shard's stream, never the machine streams,
// which only the serial phases may touch.
//
// Why not per-shard vmstat deltas or probe histograms merged at the
// barrier? Histograms and counters merge exactly (probe.Histogram.Merge
// adds counts), but the values they would observe do not: an access's
// latency depends on the page's node and home *at commit time* — after
// earlier accesses' promotions, LRU rotations, and direct-reclaim
// evictions, which a mid-batch generation bump can reroute through the
// fault path entirely. Any stage-time classification is a guess about
// state the commit loop is still mutating. Keeping observation in the
// commit loop costs nothing (it was already there) and makes
// bit-identity a structural fact instead of a reconciliation protocol.
package sim

import (
	"runtime"
	"sync"

	"tppsim/internal/mem"
	"tppsim/internal/pagetable"
	"tppsim/internal/xrand"
)

// WorkersAuto requests one worker per available CPU
// (runtime.GOMAXPROCS) when set as Config.Workers.
const WorkersAuto = -1

// stageMinPerShard is the smallest shard worth a goroutine handoff:
// below ~64 accesses per worker the wake/barrier cost exceeds the
// translate work being parallelized. Batches under the threshold take
// the serial stage path — the cutoff affects only wall-clock, never
// results, because staging is side-effect-free either way.
const stageMinPerShard = 64

// resolveWorkers maps the Config.Workers knob to a concrete worker
// count: 0 (the zero value) and 1 mean serial, WorkersAuto (or any
// negative) means GOMAXPROCS, anything else is taken literally.
func resolveWorkers(w int) int {
	if w < 0 {
		return runtime.GOMAXPROCS(0)
	}
	if w == 0 {
		return 1
	}
	return w
}

// ResolveWorkers reports the concrete worker count a Config.Workers
// value resolves to on this host (0 and 1 → serial, WorkersAuto →
// GOMAXPROCS). Exported so tooling (cmd/bench) can record the resolved
// count alongside results instead of the symbolic knob.
func ResolveWorkers(w int) int { return resolveWorkers(w) }

// stageShard is one worker's private scratch, padded so adjacent
// shards' hot words never share a cache line.
type stageShard struct {
	// warm accumulates the shard's page-flag sum — the observable that
	// keeps the warming loads alive. Integer addition is associative and
	// commutative, so the fixed-order merge reproduces the serial sum
	// bit for bit.
	warm uint64
	// rng is the shard's derived substream (see the package comment):
	// unused by today's pure-read staging, reserved as the only legal
	// source of shard-local randomness.
	rng *xrand.RNG
	_   [48]byte
}

// stagePool shards the access batch's stage phase across workers.
// Workers are spawned per stage and joined at the barrier — the
// machine owns no long-lived goroutines, so machines remain garbage
// for the collector the moment the caller drops them.
type stagePool struct {
	m       *Machine
	workers int
	shards  []stageShard
}

// stageSeedSalt separates the shard substream family from the
// machine's other derived streams.
const stageSeedSalt = 0x70617261 // "para"

func newStagePool(m *Machine, workers int) *stagePool {
	p := &stagePool{m: m, workers: workers, shards: make([]stageShard, workers)}
	for i, r := range xrand.Substreams(m.cfg.Seed^stageSeedSalt, workers) {
		p.shards[i].rng = r
	}
	return p
}

// stage runs the translate+warm front half of runAccessBatch across the
// pool, filling pfns (which aliases the machine's PFN buffer) with
// exactly the values the serial path would produce. It reports false —
// having done nothing — when the batch is too small to shard.
func (p *stagePool) stage(vs []pagetable.VPN, pfns []mem.PFN) bool {
	if len(vs) < 2*stageMinPerShard {
		return false
	}
	shards := p.workers
	if max := len(vs) / stageMinPerShard; shards > max {
		shards = max
	}
	chunk := (len(vs) + shards - 1) / shards
	as, store := p.m.as, p.m.store
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		lo := s * chunk
		hi := lo + chunk
		if hi > len(vs) {
			hi = len(vs)
		}
		wg.Add(1)
		go func(sh *stageShard, vs []pagetable.VPN, pfns []mem.PFN) {
			defer wg.Done()
			as.TranslateBatchHinted(vs, pfns)
			var warm uint64
			for _, w := range pfns {
				if w != mem.NilPFN {
					warm += uint64(store.Page(w &^ pagetable.HintBit).Flags)
				}
			}
			sh.warm = warm
		}(&p.shards[s], vs[lo:hi], pfns[lo:hi])
	}
	wg.Wait()
	// Merge shard scratch in fixed shard order.
	warm := p.m.warmSink
	for s := 0; s < shards; s++ {
		warm += p.shards[s].warm
		p.shards[s].warm = 0
	}
	p.m.warmSink = warm
	return true
}
