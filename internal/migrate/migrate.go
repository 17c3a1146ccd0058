// Package migrate implements the page-migration engine both TPP paths use:
// demotion of cold pages from local DRAM to CXL-Memory (§5.1) and
// promotion of trapped hot pages back up (§5.3). It mirrors the kernel's
// migrate_pages() contract: isolate the page from its LRU, reserve space
// on the destination, move it, and put it back on the destination's LRU —
// with explicit failure reasons (destination low on memory, abnormal page
// references, isolation failure) that feed the §5.5 observability
// counters.
//
// The engine also tracks moved bytes per window so experiments can verify
// the paper's §7 claim that steady-state migration traffic is only
// 4–16 MB/s, far below CXL link bandwidth.
package migrate

import (
	"errors"
	"fmt"

	"tppsim/internal/lru"
	"tppsim/internal/mem"
	"tppsim/internal/probe"
	"tppsim/internal/tier"
	"tppsim/internal/vmstat"
	"tppsim/internal/xrand"
)

// Reason says why a migration is happening; it selects destination LRU
// placement and PG_demoted handling.
type Reason uint8

const (
	// Demotion moves a reclaim victim down a tier. The page lands on the
	// destination's *inactive* list (it was cold) and PG_demoted is set.
	Demotion Reason = iota
	// Promotion moves a hot page up a tier. The page lands on the
	// destination's *active* list; PG_demoted is cleared, and if it was
	// set the move counts as ping-pong traffic (§5.5).
	Promotion
)

// Errors returned by Migrate, matching the paper's failure taxonomy.
var (
	// ErrTargetFull: the destination node has no free page (§5.3's
	// "local node having low memory" promotion failure; for demotion,
	// §5.1's fall-back-to-reclaim trigger).
	ErrTargetFull = errors.New("migrate: destination node full")
	// ErrBusy: the page could not be isolated from its LRU (already
	// isolated by a concurrent path) or is unevictable.
	ErrBusy = errors.New("migrate: page busy or unevictable")
	// ErrRefs: abnormal references held the page (injected with a small
	// probability to exercise the failure counters).
	ErrRefs = errors.New("migrate: abnormal page references")
)

// Config tunes the engine.
type Config struct {
	// PerPageNs is the CPU cost of moving one 4 KB page (unmap, copy,
	// remap). Default 3 µs.
	PerPageNs float64
	// RefsFailProb injects ErrRefs with this probability per attempt,
	// modeling transient reference pins. Default 0.002.
	RefsFailProb float64
	// WatermarkGuard, when true, refuses migrations that would push the
	// destination below its min watermark rather than only when the node
	// is completely full. This keeps a promotion from eating the
	// emergency reserve.
	WatermarkGuard bool
	// HugeCostFactor scales PerPageNs into the cost of moving one 2 MB
	// frame as a unit in huge-page mode (remap at PMD granularity plus
	// the 512-page copy, amortized far below 512 separate moves).
	// Default 8, ~24 µs per frame at the default PerPageNs.
	HugeCostFactor float64
}

// FaultHook lets the fault-injection plane veto migration attempts.
// OnMigrateAttempt is consulted once per attempt, after the page is
// isolated and before the transient-reference roll; a non-nil error
// fails the attempt (the engine putbacks the page, charges the
// pgmigrate_fail-family counters to src, and returns the hook's error).
// OnMigrateSuccess lets the hook clear per-page retry state.
type FaultHook interface {
	OnMigrateAttempt(pfn mem.PFN, src, dest mem.NodeID, promotion bool) error
	OnMigrateSuccess(pfn mem.PFN)
}

// Engine performs migrations over a machine's store/topology/LRU vectors.
type Engine struct {
	cfg   Config
	store *mem.Store
	topo  *tier.Topology
	vecs  []*lru.Vec
	stat  *vmstat.NodeStats
	rng   *xrand.RNG

	// probes is the machine's probe plane (nil = no probing): successful
	// migrations observe their cost into the direction's histogram and
	// fire the demote/promote tracepoints.
	probes *probe.Probes

	// faults is the fault plane's migration hook (nil = no injection).
	faults FaultHook

	movedPages  uint64 // total pages successfully moved
	windowPages uint64 // pages moved since last TakeWindow

	// Per-node cascade accounting: demotions landing on a node and
	// promotions leaving it, indexed by NodeID. Experiments and the
	// multitier example read these to show traffic per hop.
	demotedInto  []uint64
	promotedFrom []uint64

	// framePages is the base pages moved per PFN: 1 normally,
	// mem.HugeFramePages in huge-page mode, where one migration moves a
	// whole 2 MB frame (one charge, page-denominated counters scaled).
	framePages uint64
}

// NewEngine returns a migration engine. vecs must be indexed by NodeID.
func NewEngine(cfg Config, store *mem.Store, topo *tier.Topology, vecs []*lru.Vec, stat *vmstat.NodeStats, rng *xrand.RNG) *Engine {
	if cfg.PerPageNs == 0 {
		cfg.PerPageNs = 3_000
	}
	if cfg.RefsFailProb == 0 {
		cfg.RefsFailProb = 0.002
	}
	if cfg.HugeCostFactor == 0 {
		cfg.HugeCostFactor = 8
	}
	return &Engine{
		cfg: cfg, store: store, topo: topo, vecs: vecs, stat: stat, rng: rng,
		demotedInto:  make([]uint64, topo.NumNodes()),
		promotedFrom: make([]uint64, topo.NumNodes()),
		framePages:   1,
	}
}

// SetFramePages sets the base pages each PFN covers (a machine
// property, set once by the simulator before any migration).
func (e *Engine) SetFramePages(fp uint64) { e.framePages = fp }

// moveCost returns the charge for migrating one PFN: PerPageNs for a
// base page, the amortized whole-frame cost in huge-page mode.
func (e *Engine) moveCost() float64 {
	if e.framePages == 1 {
		return e.cfg.PerPageNs
	}
	return e.cfg.PerPageNs * e.cfg.HugeCostFactor
}

// SetProbes attaches the machine's probe plane (nil detaches).
func (e *Engine) SetProbes(p *probe.Probes) { e.probes = p }

// SetFaultHook attaches the fault plane's migration hook (nil
// detaches; the simulator detaches it around emergency evacuation so
// injected failures cannot block an offlining node from draining).
func (e *Engine) SetFaultHook(h FaultHook) { e.faults = h }

// DemotedInto returns how many pages have been demoted onto the node.
func (e *Engine) DemotedInto(id mem.NodeID) uint64 { return e.demotedInto[id] }

// PromotedFrom returns how many pages have been promoted off the node.
func (e *Engine) PromotedFrom(id mem.NodeID) uint64 { return e.promotedFrom[id] }

// PerPageCost returns the configured per-page migration cost in ns.
func (e *Engine) PerPageCost() float64 { return e.cfg.PerPageNs }

// MovedPages returns the total number of pages migrated since creation.
func (e *Engine) MovedPages() uint64 { return e.movedPages }

// TakeWindow returns the number of pages migrated since the previous call
// and resets the window, for bandwidth-rate reporting.
func (e *Engine) TakeWindow() uint64 {
	n := e.windowPages
	e.windowPages = 0
	return n
}

// Migrate moves pfn to node dest for the given reason. On success it
// returns the CPU cost in ns. On failure the page is left exactly where it
// was (putback performed if isolation had succeeded).
func (e *Engine) Migrate(pfn mem.PFN, dest mem.NodeID, reason Reason) (costNs float64, err error) {
	pg := e.store.Page(pfn)
	src := pg.Node
	if src == dest {
		return 0, fmt.Errorf("migrate: page %d already on node %d", pfn, dest)
	}
	if pg.Flags.Has(mem.PGUnevictable) {
		return 0, ErrBusy
	}
	// Fault plane: refuse migration onto an offline node. Callers that
	// cached their demotion cascade before the node died (AutoTiering
	// snapshots targets at construction) treat ErrTargetFull as
	// "advance the cascade", which reroutes them around it.
	if !e.topo.Online(dest) {
		e.fail(src, reason)
		if reason == Promotion {
			e.stat.Inc(src, vmstat.PromoteFailLowMem)
		}
		return 0, ErrTargetFull
	}

	// Step 1: isolate from the source LRU.
	if !e.vecs[src].Isolate(pfn) {
		e.fail(src, reason)
		return 0, ErrBusy
	}

	// Step 1b: injected transient failures (fault plane).
	if e.faults != nil {
		if ferr := e.faults.OnMigrateAttempt(pfn, src, dest, reason == Promotion); ferr != nil {
			e.vecs[src].Putback(pfn)
			e.fail(src, reason)
			return 0, ferr
		}
	}

	// Step 2: transient reference failures.
	if e.rng.Bool(e.cfg.RefsFailProb) {
		e.vecs[src].Putback(pfn)
		e.fail(src, reason)
		if reason == Promotion {
			e.stat.Inc(src, vmstat.PromoteFailRefs)
		}
		return 0, ErrRefs
	}

	// Step 3: reserve space on the destination.
	dn := e.topo.Node(dest)
	full := dn.Free() == 0
	if !full && e.cfg.WatermarkGuard && dn.Free() <= dn.WM.Min {
		full = true
	}
	if full || !dn.AcquireN(pg.Type, e.framePages) {
		e.vecs[src].Putback(pfn)
		e.fail(src, reason)
		if reason == Promotion {
			e.stat.Inc(src, vmstat.PromoteFailLowMem)
		}
		return 0, ErrTargetFull
	}

	// Step 4: move. Page-denominated counters charge every base page the
	// PFN covers (fp base pages per frame in huge mode).
	fp := e.framePages
	if fp == 1 {
		e.topo.Node(src).Release(pg.Type)
	} else {
		e.topo.Node(src).ReleaseN(pg.Type, fp)
	}
	e.store.Move(pfn, dest)
	switch reason {
	case Demotion:
		pg.Flags = pg.Flags.Set(mem.PGDemoted)
		// Demoted pages arrive cold: inactive list, referenced cleared so
		// the CXL node's LRU starts aging them fresh.
		pg.Flags = pg.Flags.Clear(mem.PGReferenced)
		e.vecs[dest].Add(pfn, false)
		if pg.Type.IsFileLike() {
			e.stat.Add(src, vmstat.PgdemoteFile, fp)
		} else {
			e.stat.Add(src, vmstat.PgdemoteAnon, fp)
		}
		e.demotedInto[dest] += fp
		if e.topo.TierOf(dest) >= 2 {
			e.stat.Add(dest, vmstat.PgdemoteFar, fp)
		}
	case Promotion:
		if pg.Flags.Has(mem.PGDemoted) {
			// Ping-pong: a demoted page came straight back (§5.5).
			e.stat.Add(dest, vmstat.PgpromoteDemoted, fp)
		}
		pg.Flags = pg.Flags.Clear(mem.PGDemoted)
		e.vecs[dest].Add(pfn, true)
		if pg.Type.IsFileLike() {
			e.stat.Add(dest, vmstat.PgpromoteFile, fp)
		} else {
			e.stat.Add(dest, vmstat.PgpromoteAnon, fp)
		}
		e.stat.Add(dest, vmstat.PgpromoteSuccess, fp)
		e.promotedFrom[src] += fp
		if e.topo.TierOf(src) >= 2 {
			e.stat.Add(src, vmstat.PgpromoteFar, fp)
		}
	}
	e.stat.Add(dest, vmstat.PgmigrateSuccess, fp)
	if fp > 1 {
		// The whole frame moved as one unit — the THP stayed intact
		// across the move (the collapse-preserving path).
		e.stat.Inc(dest, vmstat.ThpCollapse)
	}
	e.movedPages += fp
	e.windowPages += fp
	if e.faults != nil {
		e.faults.OnMigrateSuccess(pfn)
	}
	cost := e.moveCost()
	if p := e.probes; p != nil {
		promo := reason == Promotion
		if p.Lat != nil {
			if promo {
				p.Lat.Promote.ObserveFloat(cost)
			} else {
				p.Lat.Demote.ObserveFloat(cost)
			}
		}
		hook := &p.OnDemote
		if promo {
			hook = &p.OnPromote
		}
		if hook.Active() {
			hook.Fire(probe.MigrateEvent{
				PFN: uint64(pfn), Src: int(src), Dst: int(dest),
				Promotion: promo, CostNs: cost,
			})
		}
	}
	return cost, nil
}

func (e *Engine) fail(src mem.NodeID, reason Reason) {
	// pgmigrate_fail is page-denominated like pgmigrate_success: a failed
	// frame move charges every base page that failed to move.
	e.stat.Add(src, vmstat.PgmigrateFail, e.framePages)
	if reason == Demotion {
		e.stat.Add(src, vmstat.PgdemoteFail, e.framePages)
	}
}
