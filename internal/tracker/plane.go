package tracker

import (
	"fmt"

	"tppsim/internal/mem"
	"tppsim/internal/vmstat"
)

// Plane assembles the whole pipeline for one machine: the shared
// accessed-bit substrate, the configured tracker, the heatmap, the
// optional mover, and the optional ground-truth oracle. The simulator
// owns exactly one (nil when the plane is off) and drives it from two
// places: OnAccess from the charge loop and Tick once per
// simulated second.
//
// OnAccess is implemented here rather than through the Tracker
// interface: every built-in tracker observes through the shared
// AccessBits, so the plane inlines the bit write (plus the softdirty
// filter and the oracle count) and keeps the hot path free of
// interface dispatch. Trackers driven standalone — unit tests, or
// embeddings like numab's hint-fault view — use their own OnAccess.
type Plane struct {
	cfg Config
	pol PolicyConfig

	env   Env
	trk   Tracker
	hm    *Heatmap
	mover *Mover
	bits  *AccessBits
	orc   *oracle

	dirtyOnly bool

	scans           uint64
	sumPrec, sumRec float64
	precN, recN     uint64
}

// NewPlane builds the pipeline. pol is the heat-policy half; nil means
// observe-only (no mover, default thresholds for oracle scoring). A
// mover runs only when pol is non-nil and env.Engine is set.
func NewPlane(cfg Config, pol *PolicyConfig, env Env) (*Plane, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.On() {
		return nil, fmt.Errorf("tracker: NewPlane called with no kind")
	}
	gran := cfg.GranularityPages
	if cfg.Kind == "damon" {
		gran = 1 // damon samples single pages
	}
	p := &Plane{
		cfg:       cfg,
		env:       env,
		bits:      NewAccessBits(env.pfnSpace(), gran),
		hm:        NewHeatmap(env.pfnSpace(), cfg.RangePages, cfg.HalflifeTicks),
		dirtyOnly: cfg.Kind == "softdirty",
	}
	env.Bits = p.bits
	p.env.Bits = p.bits
	trk, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := trk.Start(env); err != nil {
		return nil, err
	}
	p.trk = trk
	p.pol = PolicyConfig{}.WithDefaults()
	if pol != nil {
		p.pol = pol.WithDefaults()
		if env.Engine != nil {
			p.mover = NewMover(p.pol, env, p.hm)
		}
	}
	if cfg.Oracle {
		p.orc = newOracle(env.pfnSpace(), p.hm.NumRanges())
	}
	return p, nil
}

// Config returns the plane's observation config (defaults filled).
func (p *Plane) Config() Config { return p.cfg }

// Heatmap returns the plane's heatmap.
func (p *Plane) Heatmap() *Heatmap { return p.hm }

// Tracker returns the running tracker.
func (p *Plane) Tracker() Tracker { return p.trk }

// OnAccess observes one CPU access; called from the simulator's charge
// loop, so it is a couple of array writes and nothing else.
func (p *Plane) OnAccess(pfn mem.PFN, pg *mem.Page) {
	if p.orc != nil {
		p.orc.observe(pfn)
	}
	if p.dirtyOnly && !pg.Flags.Has(mem.PGDirty) {
		return
	}
	p.bits.Set(pfn)
}

// Tick drives the pipeline once per simulated second: the tracker's
// scan clock (folding into the heatmap when due, scoring the oracle on
// every fold) and then the mover.
func (p *Plane) Tick(tick uint64) {
	if p.trk.Tick(tick, p.hm) {
		p.scans++
		if p.orc != nil {
			prec, rec, precOK, recOK := p.orc.evaluate(p.hm, p.pol)
			if precOK {
				p.sumPrec += prec
				p.precN++
			}
			if recOK {
				p.sumRec += rec
				p.recN++
			}
		}
	}
	if p.mover != nil {
		p.mover.Tick()
	}
}

// Stop stops the tracker.
func (p *Plane) Stop() { p.trk.Stop() }

// RunStats is the plane's end-of-run summary, carried on metrics.Run
// and rendered by the report package.
type RunStats struct {
	Kind           string
	Spec           string
	ScanEveryTicks uint64

	// Overhead.
	Scans          uint64
	PagesScanned   uint64  // accessed-state checks over the whole run
	ScannedPerTick float64 // the overhead headline: checks per tick
	RegionsSplit   uint64
	RegionsMerged  uint64

	// Mover.
	MoverMoved    uint64
	MoverDeferred uint64

	// Accuracy vs. the ground-truth oracle (zero unless Config.Oracle).
	OracleEvals uint64
	Precision   float64 // mean over windows with a non-empty hot-set
	Recall      float64 // mean over windows with truly hot pages

	// Final heatmap state.
	RangePages int
	HotRanges  int
	WarmRanges int
	ColdRanges int
	Heat       []float64 // per-range heat, touched-pages units
}

// Finish summarizes the run after the last tick.
func (p *Plane) Finish(ticks uint64) *RunStats {
	st := p.env.Stat
	rs := &RunStats{
		Kind:           p.cfg.Kind,
		Spec:           p.cfg.Spec(),
		ScanEveryTicks: p.cfg.ScanEveryTicks,
		Scans:          p.scans,
		PagesScanned:   st.Get(vmstat.TrackerPagesScanned),
		RegionsSplit:   st.Get(vmstat.TrackerRegionsSplit),
		RegionsMerged:  st.Get(vmstat.TrackerRegionsMerged),
		MoverMoved:     st.Get(vmstat.MoverPagesMoved),
		MoverDeferred:  st.Get(vmstat.MoverBudgetDeferred),
		OracleEvals:    p.precN,
		RangePages:     p.hm.RangePages(),
		Heat:           append([]float64(nil), p.hm.Heats()...),
	}
	if ticks > 0 {
		rs.ScannedPerTick = float64(rs.PagesScanned) / float64(ticks)
	}
	if p.precN > 0 {
		rs.Precision = p.sumPrec / float64(p.precN)
	}
	if p.recN > 0 {
		rs.Recall = p.sumRec / float64(p.recN)
	}
	for r := 0; r < p.hm.NumRanges(); r++ {
		switch p.pol.Classify(p.hm.HeatPerPage(r)) {
		case Hot:
			rs.HotRanges++
		case Warm:
			rs.WarmRanges++
		default:
			rs.ColdRanges++
		}
	}
	return rs
}
