// Package sim assembles the tiered-memory machine and runs a workload
// under a placement policy. One Machine owns the full substrate stack —
// page store, topology, per-node LRU vectors, allocator, reclaim daemon,
// NUMA balancer, optional AutoTiering/TMO/Chameleon — and advances it in
// one-second ticks:
//
//  1. the workload's Tick performs churn, growth, and warm-up flooding
//     (each touch is a memory access, and fresh touches demand-fault
//     pages through the allocator);
//  2. AccessesPerTick sampled accesses draw from the workload's
//     distribution; each one resolves latency by resident node, may take
//     a NUMA hint fault (and trigger promotion), updates LRU aging, and
//     feeds the profilers;
//  3. the kernel daemons run (kswapd demotion/reclaim, NUMA-balancing
//     scans, AutoTiering epochs, the TMO controller);
//  4. metrics are folded into per-tick accumulators and time series.
//
// Throughput reporting follows the paper: per-tick average access latency
// (plus amortized OS stall) drives the workload's throughput model,
// normalized to an all-local baseline.
package sim

import (
	"fmt"
	"math"

	"tppsim/internal/alloc"
	"tppsim/internal/autotiering"
	"tppsim/internal/chameleon"
	"tppsim/internal/core"
	"tppsim/internal/fault"
	"tppsim/internal/lru"
	"tppsim/internal/mem"
	"tppsim/internal/metrics"
	"tppsim/internal/migrate"
	"tppsim/internal/numab"
	"tppsim/internal/pagetable"
	"tppsim/internal/probe"
	"tppsim/internal/reclaim"
	"tppsim/internal/series"
	"tppsim/internal/swap"
	"tppsim/internal/tier"
	"tppsim/internal/tmo"
	"tppsim/internal/trace"
	"tppsim/internal/tracker"
	"tppsim/internal/vmstat"
	"tppsim/internal/workload"
	"tppsim/internal/xrand"
)

// TickSeconds is the wall-clock length of one simulator tick.
const TickSeconds = 1.0

// Config describes one run.
type Config struct {
	Seed     uint64
	Policy   core.Policy
	Workload workload.Workload

	// Topology declares the machine: N nodes with per-node capacity
	// (absolute pages or working-set ratio shares), kind, load latency
	// (the Fig. 16 sweep sets a node's LoadLatencyNs), bandwidth, a
	// distance matrix, and the page size. Use the tier presets
	// (PresetCXL(1, 4) for Table 1's 1:4 box, PresetCXL(1, 0) for the
	// all-local baseline, PresetDualSocket, PresetExpander) or build a
	// custom Spec. A spec with no nodes gets PresetCXL(2, 1)'s nodes, the
	// paper's 2:1 box, and keeps its own HugePages.
	//
	// Topology.HugePages backs the machine with 2 MB huge pages over an
	// extent-compressed page table: aligned 512-page frames allocate,
	// translate, migrate, and age as single units (one LRU entry, one
	// migration charge, hint-fault sampling at huge granularity), and
	// simulator state shrinks ~512x per resident page — the
	// terabyte-scale configuration.
	Topology tier.Spec
	// Slack is the capacity headroom of the Topology's share-sized nodes
	// over the working set (default 0.08; the paper: "the whole system
	// has enough memory"). Absolute-page nodes ignore it.
	Slack float64

	// Minutes is the run length in simulated minutes (default 60).
	Minutes int
	// AccessesPerTick is the sampled access-stream rate (default 2000).
	AccessesPerTick int
	// AccessScale is how many real application accesses each sampled
	// access represents (default 100). Per-page event costs (faults,
	// migrations, stalls) are amortized over the real rate.
	AccessScale float64

	// RecordEveryTicks sets the series resolution (default 30).
	RecordEveryTicks int
	// SampleEveryTicks enables the per-tick per-node series plane: every
	// N ticks the machine snapshots each node's vmstat deltas and
	// residency into a columnar self-coarsening series
	// (metrics.Run.NodeSeries). 0 — the default — disables sampling;
	// runs are then bit- and alloc-identical to pre-plane builds.
	SampleEveryTicks int
	// SampleBudget caps the retained samples (default 512); a full
	// series halves itself and doubles its cadence.
	SampleBudget int
	// ProbeLatency enables the distribution plane's histograms
	// (metrics.Run.LatencyHist): per-node access latency, migration
	// costs, allocstall durations, reclaim scan batches. Off — the
	// default — keeps runs bit- and alloc-identical to probe-free
	// builds; on costs a few percent of tick time and allocates nothing
	// per tick.
	ProbeLatency bool
	// ProbePhases enables the tick-phase wall-clock profiler
	// (metrics.Run.PhaseProfile). The profile is observational only:
	// enabling it never changes a run's simulated results.
	ProbePhases bool
	// EnableChameleon attaches the profiler.
	EnableChameleon bool
	// ChameleonConfig overrides profiler defaults when enabled.
	ChameleonConfig chameleon.Config

	// RecordTo, when set, captures the workload's full event stream to
	// the given trace file (gzip-compressed when the path ends in
	// ".gz") during the run. The trace is finalized when Run completes;
	// check Machine.RecordError afterwards. Recording is transparent:
	// the recorded run draws and charges through the same path, so its
	// results are identical with or without it, failed runs included.
	RecordTo string

	// Tracker enables the sampled access-tracking plane: the configured
	// tracker observes the access stream through a per-access hook and
	// folds what it saw into a heatmap on its scan cadence
	// (metrics.Run.Tracker carries the summary). The empty config — the
	// default — builds no plane and leaves runs bit- and alloc-identical
	// to tracker-free builds. The plane's randomness (damon's sampling)
	// comes from its own seed, never the machine streams. When the
	// policy is the sampled family (core.Policy.Sampled) the plane also
	// drives the heat-classifying mover; an unset Kind then defaults to
	// idlepage.
	Tracker tracker.Config

	// Faults is the deterministic fault-injection schedule: node
	// offline/online windows, latency-degradation windows, transient
	// migration-failure windows with retry/backoff, and capacity loss.
	// The plane draws randomness only from Faults.Seed, so the empty
	// schedule (the default) leaves runs bit- and alloc-identical to a
	// machine built without the plane, and a fixed machine seed plus a
	// fixed schedule reproduces identical faulted runs. Recorded traces
	// carry the schedule, so replays rebuild the same faults.
	Faults fault.Schedule
}

// validate rejects negative run-length and rate fields and non-finite
// scales, which no run can use: a negative Minutes would never end, a
// negative AccessesPerTick or SampleBudget panics, and a negative
// AccessScale charges negative latency. Zero means "default" for every
// field checked. Topology.Build checks the machine's own values.
func (c Config) validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"Minutes", c.Minutes},
		{"AccessesPerTick", c.AccessesPerTick},
		{"RecordEveryTicks", c.RecordEveryTicks},
		{"SampleEveryTicks", c.SampleEveryTicks},
		{"SampleBudget", c.SampleBudget},
	} {
		if f.v < 0 {
			return fmt.Errorf("sim: %s is %d; want a count >= 0 (0 means the default)", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"AccessScale", c.AccessScale},
		{"Slack", c.Slack},
	} {
		if f.v < 0 || math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("sim: %s is %v; want a finite value >= 0 (0 means the default)", f.name, f.v)
		}
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Minutes == 0 {
		c.Minutes = 60
	}
	if c.AccessesPerTick == 0 {
		c.AccessesPerTick = 2000
	}
	if c.AccessScale == 0 {
		c.AccessScale = 100
	}
	if c.RecordEveryTicks == 0 {
		c.RecordEveryTicks = 30
	}
	if c.Slack == 0 {
		c.Slack = 0.08
	}
	if len(c.Topology.Nodes) == 0 {
		huge := c.Topology.HugePages
		c.Topology = tier.PresetCXL(2, 1)
		c.Topology.HugePages = huge
	}
	return c
}

// Machine is one assembled simulation instance.
type Machine struct {
	cfg   Config
	store *mem.Store
	topo  *tier.Topology
	vecs  []*lru.Vec
	stat  *vmstat.NodeStats
	as    *pagetable.AddressSpace

	engine    *migrate.Engine
	allocator *alloc.Allocator
	daemon    *reclaim.Daemon
	balancer  *numab.Balancer
	atier     *autotiering.Tiering
	tmoctl    *tmo.Controller
	swapd     *swap.Device
	cham      *chameleon.Chameleon

	wl        workload.Workload
	accessBuf []pagetable.VPN
	// freed receives an unmapped region's PFNs; reused across Munmaps.
	freed []mem.PFN
	// pfnBuf receives the batch's translated words, with
	// pagetable.HintBit set for a hinted slot.
	pfnBuf []mem.PFN
	// warmSink keeps the translate pass's page-line touches observable so
	// the compiler cannot delete them; the loads are the point (they pull
	// each access's page line toward the cache ahead of the heavy pass).
	warmSink uint64
	recorder *trace.Recorder
	recErr   error
	rng      *xrand.RNG
	wlRNG    *xrand.RNG

	tick    uint64
	cur     metrics.Tick
	run     *metrics.Run
	baseLat float64
	failed  bool
	failWhy string

	// Per-(home CPU, resident node) load-latency matrix cached from the
	// topology (flattened row-major) so the access hot path is one
	// multiply and two slice indexes instead of pointer-chasing through
	// Topology. Sweeps set node latencies in Config.Topology before
	// assembly; only the fault plane's latency-degradation edges change
	// them mid-run, and each edge calls refreshLatMat. On single-socket
	// machines row 0 is the only row read.
	latMat    []float64
	nNodes    int
	nodeLocal []bool
	// cpuNodes lists the CPU-attached nodes; regions are placed on them
	// round-robin (their home socket), which decides both the preferred
	// allocation node and the access-latency row for their pages.
	cpuNodes   []mem.NodeID
	regionHome map[pagetable.VPN]mem.NodeID
	mmapCount  int

	// Previous cumulative promote/demote counts, for the per-tick deltas
	// fold needs. Plain integers: non-record ticks allocate nothing.
	prevPromote uint64
	prevDemote  uint64

	// Huge-page mode (Config.Topology.HugePages): every PFN is a 2 MB
	// frame of framePages base pages over an extent page table.
	// prevSplits/prevMerges carry the extent-table churn into the vmstat
	// extent_split/extent_merge counters per tick.
	huge       bool
	frameShift uint
	framePages uint64
	prevSplits uint64
	prevMerges uint64

	// Per-tick per-node sampling (Config.SampleEveryTicks): nil when
	// off; levelsBuf is reused so sample ticks allocate nothing.
	sampler   *series.Sampler
	levelsBuf []series.Levels

	// Probe plane (Config.ProbeLatency/ProbePhases or EnableProbes): nil
	// when off. prof and latAcc cache the sub-planes so the hot paths
	// pay one nil check each — latAcc aliases probes.Lat.Access.
	probes *probe.Probes
	prof   *probe.PhaseProfiler
	latAcc []probe.Histogram

	// Fault plane (Config.Faults): nil when the schedule is empty, so
	// unfaulted runs pay one nil check per tick and nothing else.
	faults *faultDriver

	// Tracker plane (Config.Tracker / the sampled policy): nil when off,
	// so tracker-free runs pay one nil check per access and per tick.
	trkPlane *tracker.Plane
}

// New assembles a machine from the config.
func New(cfg Config) (*Machine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if cfg.Workload == nil {
		return nil, fmt.Errorf("sim: no workload")
	}
	if v, ok := cfg.Workload.(workload.Validator); ok {
		if err := v.Validate(); err != nil {
			return nil, err
		}
	}
	topo, err := cfg.Topology.Build(cfg.Workload.TotalPages(), cfg.Slack)
	if err != nil {
		return nil, err
	}
	if err := cfg.Faults.Validate(topo); err != nil {
		return nil, err
	}

	// Huge-page mode sizes the store in frames (512 base pages per PFN)
	// and swaps the dense page table for the extent representation; off,
	// both choices reduce to exactly the previous machine.
	huge := topo.HugePages()
	frameShift := uint(0)
	if huge {
		frameShift = mem.HugeFrameShift
	}
	framePages := uint64(1) << frameShift
	// The store numbers frames from PFN 0, and the page table maps PFNs
	// below PFNLimit only.
	if frames := (topo.TotalCapacity() + framePages - 1) >> frameShift; frames >= uint64(pagetable.PFNLimit) {
		return nil, fmt.Errorf("sim: Topology gives the machine %d frames; it must have fewer than %d", frames, pagetable.PFNLimit)
	}
	m := &Machine{
		cfg:        cfg,
		topo:       topo,
		store:      mem.NewStore(int((topo.TotalCapacity() + framePages - 1) >> frameShift)),
		stat:       vmstat.NewNodeStats(topo.NumNodes()),
		wl:         cfg.Workload,
		rng:        xrand.New(cfg.Seed ^ 0x7070), // kernel-side randomness
		huge:       huge,
		frameShift: frameShift,
		framePages: framePages,
	}
	if huge {
		m.as = pagetable.NewExtent(1, frameShift)
	} else {
		m.as = pagetable.New(1)
	}
	m.wlRNG = xrand.New(cfg.Seed)
	m.vecs = make([]*lru.Vec, topo.NumNodes())
	for i := range m.vecs {
		m.vecs[i] = lru.NewVec(m.store)
	}

	p := cfg.Policy
	m.engine = migrate.NewEngine(p.Migrate, m.store, topo, m.vecs, m.stat, m.rng.Split())
	if p.TMO != nil || p.NeedSwap {
		m.swapd = swap.New(swap.Config{Kind: swap.KindZswap}, m.stat)
	}
	m.allocator = alloc.New(p.Alloc, m.store, topo, m.vecs, m.stat)
	m.daemon = reclaim.New(p.Reclaim, m.store, topo, m.vecs, m.stat, m.engine, m.swapd, m.as)
	m.allocator.WakeKswapd = m.daemon.Wake
	m.allocator.DirectReclaim = m.daemon.DirectReclaim
	if huge {
		// Frame granularity is a machine property: every subsystem that
		// charges residency or page-denominated counters scales by it.
		m.engine.SetFramePages(framePages)
		m.allocator.SetFramePages(framePages)
		m.daemon.SetFramePages(framePages)
		if m.swapd != nil {
			m.swapd.SetFramePages(framePages)
		}
	}

	nb := p.NUMAB
	if p.AutoTiering != nil {
		m.atier = autotiering.New(*p.AutoTiering, m.store, topo, m.vecs, m.stat, m.engine)
		nb.PromotionGate = m.atier.PromotionGate
		nb.OnPromoted = m.atier.OnPromoted
	}
	// Scale the sampling window to the machine: the kernel's 256 MB
	// default against hundreds of GB corresponds to a few percent of the
	// working set per scan.
	if nb.Enabled && nb.ScanSizePages == 0 {
		nb.ScanSizePages = int(cfg.Workload.TotalPages() / 32)
	}
	m.balancer = numab.New(nb, m.store, topo, m.vecs, m.stat, m.engine, m.as)

	if p.TMO != nil {
		m.tmoctl = tmo.New(*p.TMO, topo, m.daemon, m.swapd)
	}
	if cfg.EnableChameleon {
		m.cham = chameleon.New(cfg.ChameleonConfig, m.as, m.store, m.rng.Split())
	}

	// Resolve the tracker plane's config up front: the sampled policy
	// defaults to idlepage when no kind was chosen, and the recording
	// header carries the resolved spec so replays rebuild the plane.
	trkCfg := cfg.Tracker
	if p.Sampled != nil && !trkCfg.On() {
		trkCfg.Kind = "idlepage"
	}
	if err := trkCfg.Validate(); err != nil {
		return nil, err
	}

	if cfg.RecordTo != "" {
		// The header records the resolved machine so a replay can rebuild
		// it exactly (tppsim.Replay adopts it when the caller's Topology
		// has no nodes).
		h := trace.HeaderFor(cfg.Workload)
		spec := topo.Spec()
		h.Topology = &spec
		if !cfg.Faults.Empty() {
			fs := cfg.Faults
			h.Faults = &fs
		}
		h.Tracker = trkCfg.Spec()
		w, err := trace.Create(cfg.RecordTo, h)
		if err != nil {
			return nil, err
		}
		m.recorder = trace.NewRecorder(cfg.Workload, w)
		m.wl = m.recorder
	}

	m.baseLat = topo.Traits(0).LoadLatency
	m.nNodes = topo.NumNodes()
	m.latMat = make([]float64, m.nNodes*m.nNodes)
	m.nodeLocal = make([]bool, m.nNodes)
	for i := 0; i < m.nNodes; i++ {
		m.nodeLocal[i] = topo.Node(mem.NodeID(i)).Kind == mem.KindLocal
	}
	m.refreshLatMat()
	m.cpuNodes = topo.LocalNodes()
	if len(m.cpuNodes) == 0 {
		m.cpuNodes = []mem.NodeID{0}
	}
	if len(m.cpuNodes) > 1 {
		m.regionHome = make(map[pagetable.VPN]mem.NodeID)
	}
	if cfg.SampleEveryTicks > 0 {
		m.sampler = series.NewSampler(m.nNodes, series.Config{
			Every:  uint64(cfg.SampleEveryTicks),
			Budget: cfg.SampleBudget,
		})
		m.levelsBuf = make([]series.Levels, 0, m.nNodes)
	}
	if cfg.ProbeLatency || cfg.ProbePhases {
		m.installProbes(probe.New(m.nNodes, cfg.ProbeLatency, cfg.ProbePhases))
	}
	if !cfg.Faults.Empty() {
		m.faults = newFaultDriver(m, cfg.Faults)
	}
	if trkCfg.On() {
		env := tracker.Env{
			Store: m.store,
			Topo:  topo,
			Stat:  m.stat,
			Seed:  cfg.Seed ^ 0x7472616b, // tracker-private randomness
		}
		if p.Sampled != nil {
			env.Engine = m.engine
		}
		m.trkPlane, err = tracker.NewPlane(trkCfg, p.Sampled, env)
		if err != nil {
			return nil, err
		}
	}
	m.run = &metrics.Run{Policy: p.Name, Workload: cfg.Workload.Name()}
	m.accessBuf = make([]pagetable.VPN, cfg.AccessesPerTick)
	m.pfnBuf = make([]mem.PFN, cfg.AccessesPerTick)
	m.wl.Start(m)
	return m, nil
}

// --- workload.Ctx implementation -----------------------------------------

// Mmap implements workload.Ctx. On multi-socket machines the new
// region is placed on a home CPU node round-robin, modeling the
// scheduler spreading application threads over the sockets; its pages
// prefer allocation there and pay access latency from there.
func (m *Machine) Mmap(pages uint64, t mem.PageType) pagetable.Region {
	r := m.as.Mmap(pages, t)
	if m.regionHome != nil {
		m.regionHome[r.Start] = m.cpuNodes[m.mmapCount%len(m.cpuNodes)]
	}
	m.mmapCount++
	return r
}

// Munmap implements workload.Ctx: frees every populated page.
func (m *Machine) Munmap(r pagetable.Region) {
	m.freed = m.as.Munmap(r, m.freed[:0])
	for _, pfn := range m.freed {
		m.allocator.FreePage(pfn)
	}
	if m.regionHome != nil {
		delete(m.regionHome, r.Start)
	}
}

// homeOf returns the CPU node a region's threads run on: node 0 on
// single-socket machines, the region's round-robin socket otherwise.
func (m *Machine) homeOf(r pagetable.Region) mem.NodeID {
	if m.regionHome == nil {
		return m.cpuNodes[0]
	}
	if h, ok := m.regionHome[r.Start]; ok {
		return h
	}
	return m.cpuNodes[0]
}

// Touch implements workload.Ctx: one access, demand-faulting if needed.
// charge translates it as a one-element batch with an unresolved word.
func (m *Machine) Touch(v pagetable.VPN) {
	vs := [1]pagetable.VPN{v}
	ws := [1]mem.PFN{mem.NilPFN}
	m.charge(vs[:], ws[:])
}

// TouchRange implements workload.Ctx: Touch(start) ... Touch(start+n-1)
// in order. The dense table touches page by page. A huge-frame table
// walks the range a frame at a time: the frame's first access goes
// through Touch, which faults the frame in if need be, and charge takes
// the rest of the frame, clamped to the range and the region, as one
// batch of the word translated once after that Touch.
func (m *Machine) TouchRange(start pagetable.VPN, n uint64) {
	end := start + pagetable.VPN(n)
	if m.framePages == 1 {
		for v := start; v < end; v++ {
			m.Touch(v)
		}
		return
	}
	var vs [mem.HugeFramePages]pagetable.VPN
	var ws [mem.HugeFramePages]mem.PFN
	for v := start; v < end; v++ {
		m.Touch(v)
		if m.failed {
			return // every later Touch would be a no-op
		}
		r, _ := m.as.RegionOf(v) // Touch mapped v, so it lies in a region
		stop := min(end, r.End(), (v|pagetable.VPN(m.framePages-1))+1)
		w, hinted, _ := m.as.TranslateHinted(v)
		if hinted {
			w |= pagetable.HintBit
		}
		k := 0
		for ; v+1 < stop; k++ {
			v++
			vs[k], ws[k] = v, w
		}
		m.charge(vs[:k], ws[:k])
	}
}

// RNG implements workload.Ctx.
func (m *Machine) RNG() *xrand.RNG { return m.wlRNG }

// --- core loop ------------------------------------------------------------

// fault demand-faults v in, returning the new PFN and the per-page event
// cost charged to the access. These are per-page costs, amortized over
// the real access rate in the averages.
func (m *Machine) fault(v pagetable.VPN) (mem.PFN, float64) {
	const minorFaultNs = 1000
	var event float64
	r, found := m.as.RegionOf(v)
	if !found {
		// Reachable from a hand-written or corrupt trace: the run fails
		// with a reason rather than taking the process down.
		m.fail(fmt.Sprintf("access outside any region: VPN %d", v))
		return mem.NilPFN, 0
	}
	evict := m.as.Evicted(v)
	home := m.homeOf(r)
	res, err := m.allocator.AllocPage(r.Type, home)
	if err != nil {
		m.fail("out of memory: " + err.Error())
		return mem.NilPFN, 0
	}
	pfn := res.PFN
	m.store.Page(pfn).Home = home
	if m.huge {
		// Huge-frame fault: the whole aligned 512-page run maps as one
		// extent (regions are frame-aligned in extent mode, so base never
		// falls before r.Start); a partial tail frame still charged the
		// full frame at the allocator.
		base := v &^ pagetable.VPN(m.framePages-1)
		span := uint64(r.End() - base)
		if span > m.framePages {
			span = m.framePages
		}
		m.as.MapRange(base, pfn, span)
		m.balancer.Mapped(base, res.Node)
		m.stat.Inc(res.Node, vmstat.ThpFaultAlloc)
		m.cur.AllocPages += m.framePages
		if m.topo.Node(res.Node).Kind == mem.KindLocal {
			m.cur.AllocLocal += m.framePages
		}
	} else {
		m.as.MapPage(v, pfn)
		m.balancer.Mapped(v, res.Node)
		m.cur.AllocPages++
		if m.topo.Node(res.Node).Kind == mem.KindLocal {
			m.cur.AllocLocal++
		}
	}
	event += minorFaultNs + res.StallNs
	m.cur.StallNs += res.StallNs
	switch evict {
	case pagetable.EvictSwap:
		// Major fault: the page comes back from the swap pool.
		cost := m.swapd.PageIn(res.Node)
		event += cost
		m.cur.StallNs += cost
	case pagetable.EvictFile:
		// Refault of a dropped file page: re-read from storage, one read
		// per base page of the frame.
		refault := 20_000 * float64(m.framePages)
		event += refault
		m.cur.StallNs += refault
	}
	// Dirty-at-fault probability from the region's spec is applied by
	// the workload indirectly: file pages written during warm-up are
	// dirty. We model it with the region's page type: file pages
	// faulted during the warm-up flood are dirtied below by the
	// workload profile's DirtyProb; since the simulator does not see
	// the spec here, dirtiness is set by a separate hook.
	m.dirtyHook(pfn, r)
	return pfn, event
}

// runAccessBatch charges one tick's access stream: translations resolve
// in one batched pagetable call, resident page lines are pulled toward
// the cache in a dedicated loop (independent loads overlap their
// misses), and charge walks the words.
func (m *Machine) runAccessBatch(vs []pagetable.VPN) {
	ws := m.pfnBuf[:len(vs)]
	m.as.TranslateBatchHinted(vs, ws)
	warm := m.warmSink
	for _, w := range ws {
		if w != mem.NilPFN {
			warm += uint64(m.store.Page(w &^ pagetable.HintBit).Flags)
		}
	}
	m.warmSink = warm
	m.prof.Lap(probe.PhaseTranslate)
	m.charge(vs, ws)
	m.prof.Lap(probe.PhaseCharge)
}

// charge performs the accesses vs in order, charging each its resident
// node's load latency and updating every interested subsystem. ws holds
// each access's translated word, with pagetable.HintBit set for a hinted
// slot; a mem.NilPFN word is translated again here and demand-faulted in
// if still unmapped (an earlier access of the batch may have mapped it).
//
// The words are valid only while no page is unmapped. A fault can
// trigger direct reclaim, which evicts (unmaps) pages whose words are
// already in ws; the address-space generation counter detects that, and
// every later word is translated again, so a batch charges exactly as
// its accesses would one at a time. Migration keeps PFNs, so a promotion
// leaves the words valid. Only the daemon phase's scan sets hints, so an
// access whose word has no hint needs no balancer call; one whose word
// has a hint asks the balancer, which checks the live bit, so a slot
// accessed twice in the batch faults once.
func (m *Machine) charge(vs []pagetable.VPN, ws []mem.PFN) {
	const lruHot = mem.PGOnLRU | mem.PGReferenced | mem.PGActive
	// Integer access counters accumulate in locals (exact under
	// reassociation, unlike the float latency sum, which keeps its
	// per-access order). Machine fields are read in place: a local
	// copy would be spilled on entry, which Touch pays per access.
	var accesses, local uint64
	gen := m.as.Gen()
	for i, v := range vs {
		w := ws[i]
		var event float64
		if w == mem.NilPFN || m.as.Gen() != gen {
			if m.failed {
				break
			}
			pfn, hinted, ok := m.as.TranslateHinted(v)
			if !ok {
				pfn, event = m.fault(v) // a page just mapped is unhinted
				if m.failed {
					break
				}
			} else if hinted {
				pfn |= pagetable.HintBit
			}
			w = pfn
		}
		pfn := w &^ pagetable.HintBit
		pg := m.store.Page(pfn)
		load := m.latMat[int(pg.Home)*m.nNodes+int(pg.Node)]
		servedLocal := m.nodeLocal[pg.Node]
		if m.latAcc != nil {
			m.latAcc[pg.Node].Observe(uint64(load))
		}
		// NUMA-balancing hint fault and possible promotion: per-page
		// event costs, paid once per hint regardless of access rate.
		if w != pfn {
			event += m.balancer.OnAccess(v, pfn, pg).LatencyNs
		}
		// mark_page_accessed fast path: a page already active and
		// referenced on its LRU list is a no-op in MarkAccessedPage.
		if pg.Flags&lruHot != lruHot {
			m.vecs[pg.Node].MarkAccessedPage(pfn, pg)
		}
		if m.atier != nil {
			m.atier.RecordAccess(pfn)
		}
		if m.cham != nil {
			m.cham.OnAccess(v)
		}
		if m.trkPlane != nil {
			m.trkPlane.OnAccess(pfn, pg)
		}
		accesses++
		if servedLocal {
			local++
		}
		m.cur.LatencySumNs += load
		if event != 0 {
			m.cur.EventNs += event
		}
	}
	m.cur.Accesses += accesses
	m.cur.LocalAccesses += local
}

// dirtyHook marks freshly faulted file pages dirty according to the
// owning region's profile, so default reclaim pays writeback for them.
func (m *Machine) dirtyHook(pfn mem.PFN, r pagetable.Region) {
	if !r.Type.IsFileLike() {
		return
	}
	prob := m.dirtyProbFor(r)
	if prob > 0 && m.rng.Bool(prob) {
		pg := m.store.Page(pfn)
		pg.Flags = pg.Flags.Set(mem.PGDirty)
	}
}

// dirtyProbFor asks the workload for the region's dirty-at-fault
// probability. Profiles, trace recorders, and trace replayers implement
// the DirtyModel hook; other workloads default to clean pages.
func (m *Machine) dirtyProbFor(r pagetable.Region) float64 {
	if dm, ok := m.wl.(workload.DirtyModel); ok {
		return dm.DirtyProb(r)
	}
	return 0
}

// fail aborts the run (AutoTiering crash, OOM).
func (m *Machine) fail(why string) {
	if !m.failed {
		m.failed = true
		m.failWhy = why
	}
}

// Step advances the machine one tick.
func (m *Machine) Step() {
	if m.failed {
		return
	}
	m.cur = metrics.Tick{}
	// Fault plane: apply every schedule edge due this tick (offline
	// evacuations, latency windows, migration-failure windows, capacity
	// loss) before the workload and daemons see the machine.
	if m.faults != nil {
		m.faults.beginTick(m.tick)
	}
	// prof's Begin/Lap are nil-receiver no-ops, so the unprofiled tick
	// pays one branch per lap site and nothing else.
	prof := m.prof
	prof.Begin()

	// 1. Workload housekeeping (may Touch pages).
	m.wl.Tick(m, m.tick)
	prof.Lap(probe.PhaseWorkload)

	// 2. Access stream, unless the workload phase failed the run: the
	// whole tick's accesses are drawn in one call, then translated and
	// charged in order. A draw never reads machine state the tick's
	// accesses change, so the stream is the one per-access draws would
	// give, and a recording wrapper draws and charges the same stream.
	if !m.failed {
		n := m.wl.NextAccessBatch(m, m.tick, m.accessBuf)
		prof.Lap(probe.PhaseDraw)
		m.runAccessBatch(m.accessBuf[:n])
	}

	// 3. Daemons. Migration work shows up under the phase of the engine
	// driving it: demotions under reclaim, promotions under numab.
	m.daemon.Tick()
	prof.Lap(probe.PhaseReclaim)
	m.balancer.Tick()
	prof.Lap(probe.PhaseNUMAB)
	if m.atier != nil {
		m.atier.Tick()
		if m.atier.Failed() {
			m.fail("AutoTiering promotion starvation crash")
		}
	}
	if m.tmoctl != nil {
		m.tmoctl.ObserveStall(m.cur.StallNs, TickSeconds*1e9)
		m.tmoctl.Tick()
	}
	if m.cham != nil {
		m.cham.Tick()
	}
	// Tracker plane: scan clock, heatmap fold, oracle scoring, mover.
	if m.trkPlane != nil {
		m.trkPlane.Tick(m.tick)
	}
	prof.Lap(probe.PhaseControl)

	// 4. Metrics.
	m.fold()
	prof.Lap(probe.PhaseFold)
	// Faulted runs validate conservation invariants every tick: pages
	// leaked by an evacuation or counters charged to no node fail loudly
	// at the tick that broke them, not at the end of the run.
	if m.faults != nil {
		if err := m.faults.checker.Check(); err != nil {
			m.fail(err.Error())
		}
	}
	m.tick++
}

// fold updates series and counters at the end of a tick. Only the two
// promote/demote deltas are read per tick — directly from the indexed
// vmstat registry, no snapshot — so non-record ticks allocate nothing.
func (m *Machine) fold() {
	promote := m.stat.Get(vmstat.PgpromoteSuccess)
	demote := m.stat.Get(vmstat.PgdemoteKswapd) + m.stat.Get(vmstat.PgdemoteDirect)
	m.cur.PromotedPages = promote - m.prevPromote
	m.cur.DemotedPages = demote - m.prevDemote
	m.prevPromote, m.prevDemote = promote, demote

	// Extent-table churn surfaces as vmstat counters; the table is
	// machine-global, so both attribute to node 0. Off huge mode both
	// totals stay zero and this costs two loads per tick.
	if m.huge {
		if s := m.as.ExtentSplits(); s != m.prevSplits {
			m.stat.Add(0, vmstat.ExtentSplit, s-m.prevSplits)
			m.prevSplits = s
		}
		if g := m.as.ExtentMerges(); g != m.prevMerges {
			m.stat.Add(0, vmstat.ExtentMerge, g-m.prevMerges)
			m.prevMerges = g
		}
	}

	// Per-node series plane: one compare on non-sample ticks; sample
	// ticks snapshot every node's counter deltas and residency into the
	// preallocated columns.
	if m.sampler != nil && m.sampler.Due(m.tick) {
		m.sampler.Observe(m.tick, m.stat, m.NodeLevels(m.levelsBuf[:0]))
	}

	if m.tick%uint64(m.cfg.RecordEveryTicks) != 0 {
		return
	}
	minutes := float64(m.tick) / workload.TicksPerMinute
	pageKB := float64(mem.PageSize) / 1024
	m.run.LocalTraffic.Append(minutes, m.cur.LocalFraction())
	m.run.AvgLatency.Append(minutes, m.cur.AvgLatencyNs(m.cfg.AccessScale))
	m.run.AllocRate.Append(minutes, float64(m.cur.AllocPages)*pageKB/1024/TickSeconds)      // MB/s
	m.run.LocalAllocRate.Append(minutes, float64(m.cur.AllocLocal)*pageKB/1024/TickSeconds) // MB/s
	m.run.PromotionRate.Append(minutes, float64(m.cur.PromotedPages)*pageKB/TickSeconds)
	m.run.DemotionRate.Append(minutes, float64(m.cur.DemotedPages)*pageKB/TickSeconds)
	m.run.MigrationRate.Append(minutes, float64(m.engine.TakeWindow())*pageKB/1024/
		(TickSeconds*float64(m.cfg.RecordEveryTicks)))
	m.run.Throughput.Append(minutes, m.tickThroughput())
	m.run.AnonResidency.Append(minutes, m.anonLocalFraction())
	var anon, file, total float64
	for _, n := range m.topo.Nodes() {
		anon += float64(n.ResidentByType(mem.Anon))
		file += float64(n.ResidentByType(mem.File) + n.ResidentByType(mem.Tmpfs))
		total += float64(n.Capacity)
	}
	m.run.UtilTotal.Append(minutes, (anon+file)/total)
	m.run.UtilAnon.Append(minutes, anon/total)
	m.run.UtilFile.Append(minutes, file/total)
}

// refreshLatMat rebuilds the access hot path's latency matrix from the
// topology. Called once at assembly and again whenever a fault-plane
// latency edge rescales a node.
func (m *Machine) refreshLatMat() {
	for i := 0; i < m.nNodes; i++ {
		for j := 0; j < m.nNodes; j++ {
			m.latMat[i*m.nNodes+j] = m.topo.AccessLatency(mem.NodeID(i), mem.NodeID(j))
		}
	}
}

// installProbes hands the probe plane to every engine that fires into
// it and primes the machine's hot-path caches.
func (m *Machine) installProbes(p *probe.Probes) {
	m.probes = p
	m.prof = p.Prof
	if p.Lat != nil {
		m.latAcc = p.Lat.Access
	}
	m.engine.SetProbes(p)
	m.allocator.SetProbes(p)
	m.daemon.SetProbes(p)
}

// Probes returns the machine's probe plane, or nil when none is
// installed.
func (m *Machine) Probes() *probe.Probes { return m.probes }

// EnableProbes ensures the machine carries a probe plane and returns it,
// so callers can attach tracepoint subscribers (probe.Hook) without
// turning on the histogram or profiler sub-planes. Attach before the
// first Step; the plane must not change mid-run.
func (m *Machine) EnableProbes() *probe.Probes {
	if m.probes == nil {
		m.installProbes(probe.New(m.nNodes, false, false))
	}
	return m.probes
}

// tickThroughput computes this tick's normalized throughput from the
// throughput model: OS stall is amortized as extra per-access latency.
func (m *Machine) tickThroughput() float64 {
	if m.cur.Accesses == 0 {
		return 1
	}
	avg := m.cur.AvgLatencyNs(m.cfg.AccessScale)
	return m.wl.Model().Normalized(avg, 0, m.baseLat)
}

// anonLocalFraction reports what share of anon pages sit on local nodes.
func (m *Machine) anonLocalFraction() float64 {
	var local, total uint64
	for _, n := range m.topo.Nodes() {
		c := n.ResidentByType(mem.Anon)
		total += c
		if n.Kind == mem.KindLocal {
			local += c
		}
	}
	if total == 0 {
		return 0
	}
	return float64(local) / float64(total)
}

// Run executes the configured number of minutes and returns the results.
func (m *Machine) Run() *metrics.Run {
	ticks := uint64(m.cfg.Minutes) * workload.TicksPerMinute
	for m.tick < ticks && !m.failed {
		m.Step()
	}
	m.finish()
	return m.run
}

// finish computes run-level scalars and finalizes any recording.
func (m *Machine) finish() {
	if m.recorder != nil {
		// A recording failure spoils the trace artifact, not the
		// simulation; it is surfaced via RecordError, not the run.
		m.recErr = m.recorder.Close()
		m.recorder = nil
	}
	if er, ok := m.wl.(workload.ErrorReporter); ok && !m.failed {
		if err := er.WorkloadErr(); err != nil {
			m.fail("workload error: " + err.Error())
		}
	}
	m.run.Failed = m.failed
	m.run.FailReason = m.failWhy
	if m.sampler != nil {
		if m.tick > 0 {
			// Close the final partial window so the series' delta columns
			// total exactly to the final counters on any run length.
			m.sampler.Flush(m.tick-1, m.stat, m.NodeLevels(m.levelsBuf[:0]))
		}
		m.run.NodeSeries = m.sampler.Series()
	}
	if m.probes != nil {
		m.run.LatencyHist = m.probes.Lat
		m.run.PhaseProfile = m.probes.Prof
	}
	if m.faults != nil {
		m.run.FaultLog = m.faults.log
	}
	if m.trkPlane != nil {
		m.run.Tracker = m.trkPlane.Finish(m.tick)
	}
	// Per-node end-of-run accounting from the stats plane — populated
	// for failed runs too, so a crash still shows where pages sat.
	m.run.Nodes = m.run.Nodes[:0]
	for _, n := range m.topo.Nodes() {
		m.run.Nodes = append(m.run.Nodes, metrics.NodeResult{
			ID:            int(n.ID),
			Kind:          n.Kind.String(),
			Tier:          m.topo.TierOf(n.ID),
			CapacityPages: n.Capacity,
			ResidentPages: n.Resident(),
			ResidentAnon:  n.ResidentByType(mem.Anon),
			ResidentFile:  n.ResidentByType(mem.File) + n.ResidentByType(mem.Tmpfs),
			LoadLatencyNs: m.topo.Traits(n.ID).LoadLatency,
			Counters:      m.stat.NodeSnapshot(n.ID),
		})
	}
	m.run.MemStats = m.MemStats()
	if m.failed {
		return
	}
	// Steady state: the last 60% of the run, past warm-up and
	// convergence.
	m.run.AvgLocalTraffic = m.run.LocalTraffic.Tail(0.6)
	m.run.AvgLatencyNs = m.run.AvgLatency.Tail(0.6)
	m.run.NormalizedThroughput = m.run.Throughput.Tail(0.6)
}

// --- accessors for experiments and tests ----------------------------------

// Stat returns the machine's node-indexed vmstat plane. Global views
// (Get, Snapshot) are the exact sum of the per-node ones.
func (m *Machine) Stat() *vmstat.NodeStats { return m.stat }

// NodeVmstat appends every node's vmstat snapshot to dst in node order
// and returns the extended slice; it implements trace.NodeStatsSource
// so recordings carry per-node counter deltas per tick.
func (m *Machine) NodeVmstat(dst []vmstat.Snapshot) []vmstat.Snapshot {
	return m.stat.AppendNodeSnapshots(dst)
}

// NodeLevels appends every node's residency levels to dst in node order
// and returns the extended slice. The series sampler and the trace
// recorder (trace.NodeLevelsSource) both read residency through it, so
// live-sampled series and trace-decoded series see identical levels.
func (m *Machine) NodeLevels(dst []series.Levels) []series.Levels {
	for _, n := range m.topo.Nodes() {
		dst = append(dst, series.Levels{
			Resident: n.Resident(),
			Anon:     n.ResidentByType(mem.Anon),
			File:     n.ResidentByType(mem.File) + n.ResidentByType(mem.Tmpfs),
		})
	}
	return dst
}

// MemStats snapshots the simulator's own memory footprint: page-table
// representation plus page store, and the bytes-per-simulated-resident-
// page ratio that is the extent table's scaling headline.
func (m *Machine) MemStats() metrics.MemStats {
	fp := m.as.Footprint()
	ms := metrics.MemStats{
		Extents:       fp.Extents,
		Splits:        fp.Splits,
		Merges:        fp.Merges,
		FramePages:    m.framePages,
		ResidentPages: uint64(m.store.Live()) * m.framePages,
		TableBytes:    fp.Bytes,
		StoreBytes:    m.store.FootprintBytes(),
	}
	if ms.ResidentPages > 0 {
		ms.BytesPerPage = float64(ms.TableBytes+ms.StoreBytes) / float64(ms.ResidentPages)
	}
	return ms
}

// Topology returns the machine topology.
func (m *Machine) Topology() *tier.Topology { return m.topo }

// Engine returns the migration engine.
func (m *Machine) Engine() *migrate.Engine { return m.engine }

// AddressSpace returns the workload's address space.
func (m *Machine) AddressSpace() *pagetable.AddressSpace { return m.as }

// TrackerPlane returns the machine's tracker plane (nil when off).
func (m *Machine) TrackerPlane() *tracker.Plane { return m.trkPlane }

// Chameleon returns the attached profiler (nil unless enabled).
func (m *Machine) Chameleon() *chameleon.Chameleon { return m.cham }

// TMO returns the TMO controller (nil unless configured).
func (m *Machine) TMO() *tmo.Controller { return m.tmoctl }

// Swap returns the swap device (nil unless configured).
func (m *Machine) Swap() *swap.Device { return m.swapd }

// Tick returns the current tick number.
func (m *Machine) Tick() uint64 { return m.tick }

// Failed reports whether the run has aborted.
func (m *Machine) Failed() (bool, string) { return m.failed, m.failWhy }

// RecordError reports whether writing the Config.RecordTo trace failed.
// Only meaningful after Run has returned.
func (m *Machine) RecordError() error { return m.recErr }

// Results returns the (possibly in-progress) run metrics.
func (m *Machine) Results() *metrics.Run { return m.run }
