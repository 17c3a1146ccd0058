package tracker

import (
	"tppsim/internal/mem"
	"tppsim/internal/vmstat"
)

// bitTracker is the scan-and-clear family: per-granule accessed bits
// set on the hot path and harvested by a periodic full scan, modeling
// /sys/kernel/mm/page_idle (idlepage) and /proc/pid/clear_refs
// soft-dirty (softdirty — write bits only). The scan walks every
// granule: its cost is proportional to machine memory, which is the
// mechanism's defining overhead, and every check is charged to
// tracker_pages_scanned on the node holding the granule's first PFN.
//
// The simulator pays that cost in simulated counters, not in host time:
// the walk reads the bitmap a 64-bit word at a time and skips empty
// words, and the charge comes from the page store's per-node counts
// (mem.Store.LiveAligned), so the scan reads no page.
type bitTracker struct {
	name      string
	cfg       Config
	dirtyOnly bool

	env      Env
	bits     *AccessBits
	lastScan uint64
	started  bool
}

func newBitTracker(name string, cfg Config, dirtyOnly bool) *bitTracker {
	return &bitTracker{name: name, cfg: cfg.WithDefaults(), dirtyOnly: dirtyOnly}
}

// Name returns the registry kind.
func (t *bitTracker) Name() string { return t.name }

// Start binds the tracker; the access bitmap comes from the env when
// the plane maintains one, otherwise the tracker owns its own.
func (t *bitTracker) Start(env Env) error {
	t.env = env
	t.bits = env.Bits
	if t.bits == nil {
		t.bits = NewAccessBits(env.pfnSpace(), t.cfg.GranularityPages)
	}
	t.started = true
	return nil
}

// Stop releases the tracker.
func (t *bitTracker) Stop() { t.started = false }

// OnAccess marks the page's granule accessed; softdirty only sees
// accesses to dirty pages (its model of "writes" — pages the workload
// never dirties are invisible to it).
func (t *bitTracker) OnAccess(pfn mem.PFN, pg *mem.Page) {
	if t.dirtyOnly && !pg.Flags.Has(mem.PGDirty) {
		return
	}
	t.bits.Set(pfn)
}

// Tick runs the scan on its period: every granule's bit is checked and
// cleared, set granules fold their page count into the heatmap. The
// walk covers the allocated PFN space (Store.Len is the high-water
// mark; the bitmap is sized for full capacity but bits past the mark
// can never be set). Each granule's check is charged to the node
// holding its first PFN; checks of freed pages (Node == NilNode) do
// work but have no resident node to charge.
func (t *bitTracker) Tick(tick uint64, hm *Heatmap) bool {
	if !t.started || tick-t.lastScan < t.cfg.ScanEveryTicks {
		return false
	}
	t.lastScan = tick
	hm.BeginWindow(float64(t.cfg.ScanEveryTicks))

	store := t.env.Store
	t.bits.harvest(store.Len(), hm)
	for n := 0; n < t.env.Topo.NumNodes(); n++ {
		if c := store.LiveAligned(mem.NodeID(n), t.bits.shift); c != 0 {
			t.env.Stat.Add(mem.NodeID(n), vmstat.TrackerPagesScanned, c)
		}
	}
	return true
}
