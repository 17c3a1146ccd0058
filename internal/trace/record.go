package trace

import (
	"tppsim/internal/fault"
	"tppsim/internal/mem"
	"tppsim/internal/metrics"
	"tppsim/internal/pagetable"
	"tppsim/internal/series"
	"tppsim/internal/vmstat"
	"tppsim/internal/workload"
)

// NodeStatsSource is implemented by machines that expose a node-indexed
// vmstat plane (sim.Machine does); when the recording context provides
// one, every recorded tick carries the per-node counter deltas the
// machine accumulated during it.
type NodeStatsSource interface {
	// NodeVmstat appends one snapshot per node to dst and returns the
	// extended slice.
	NodeVmstat(dst []vmstat.Snapshot) []vmstat.Snapshot
}

// NodeLevelsSource is implemented by machines that expose per-node
// residency (sim.Machine does); when the recording context provides one
// alongside NodeStatsSource, every recorded tick also carries each
// node's residency levels at the tick's end — the level columns
// trace.Stats folds into the series plane.
type NodeLevelsSource interface {
	// NodeLevels appends one Levels entry per node to dst and returns
	// the extended slice.
	NodeLevels(dst []series.Levels) []series.Levels
}

// Recorder wraps a workload and transparently captures its full event
// stream — mmaps, munmaps, touches, and the sampled access stream — as
// the simulator runs it. The wrapped workload's behaviour is unchanged:
// every Ctx call is forwarded to the real machine, and the workload's
// random stream is untouched, so a recorded run is bit-identical to an
// unrecorded one.
//
// Close must be called after the run to write the final tick marker and
// flush the writer; sim.Config.RecordTo wires this up automatically.
type Recorder struct {
	inner  workload.Workload
	w      *Writer
	ticked bool

	// Per-node vmstat delta capture (the TickEnd payload). src is the
	// machine's stats plane when it offers one; prev/cur/deltas are
	// reused across ticks so recording stays allocation-free after the
	// first tick. lvlSrc/levels mirror the arrangement for the
	// residency levels.
	src    NodeStatsSource
	prev   []vmstat.Snapshot
	cur    []vmstat.Snapshot
	deltas []vmstat.Snapshot
	lvlSrc NodeLevelsSource
	levels []series.Levels
}

var _ workload.Workload = (*Recorder)(nil)
var _ workload.DirtyModel = (*Recorder)(nil)

// NewRecorder wraps inner, sending its event stream to w. The caller is
// expected to have constructed w with HeaderFor(inner).
func NewRecorder(inner workload.Workload, w *Writer) *Recorder {
	return &Recorder{inner: inner, w: w}
}

// Name implements workload.Workload.
func (r *Recorder) Name() string { return r.inner.Name() }

// Model implements workload.Workload.
func (r *Recorder) Model() metrics.ThroughputModel { return r.inner.Model() }

// TotalPages implements workload.Workload.
func (r *Recorder) TotalPages() uint64 { return r.inner.TotalPages() }

// WarmupTicks implements workload.Workload.
func (r *Recorder) WarmupTicks() uint64 { return r.inner.WarmupTicks() }

// Start implements workload.Workload: the inner setup runs against a
// recording context, then the start section is closed. The first
// recorded tick's deltas start from zero (setup faults count toward
// it), so summing every tick's deltas reproduces the recording
// machine's final per-node counters exactly.
func (r *Recorder) Start(ctx workload.Ctx) {
	r.src, _ = ctx.(NodeStatsSource)
	r.lvlSrc, _ = ctx.(NodeLevelsSource)
	r.prev = r.prev[:0]
	r.inner.Start(recCtx{ctx, r})
	r.w.StartEnd()
}

// Tick implements workload.Workload. The previous tick's end marker is
// written lazily here, after that tick's accesses have been recorded.
func (r *Recorder) Tick(ctx workload.Ctx, tick uint64) {
	if r.ticked {
		r.writeTickEnd()
	}
	r.ticked = true
	r.inner.Tick(recCtx{ctx, r}, tick)
}

// writeTickEnd closes the previous tick, attaching per-node vmstat
// deltas (and residency levels, when available) when the machine
// exposes its stats plane.
func (r *Recorder) writeTickEnd() {
	if r.src == nil {
		r.w.TickEnd()
		return
	}
	r.cur = r.src.NodeVmstat(r.cur[:0])
	r.deltas = r.deltas[:0]
	for i, sn := range r.cur {
		var prev vmstat.Snapshot
		if i < len(r.prev) {
			prev = r.prev[i]
		}
		r.deltas = append(r.deltas, sn.Delta(prev))
	}
	r.levels = r.levels[:0]
	if r.lvlSrc != nil {
		r.levels = r.lvlSrc.NodeLevels(r.levels)
	}
	r.w.TickEndDeltas(r.deltas, r.levels)
	r.prev = append(r.prev[:0], r.cur...)
}

// Fault records one applied fault edge into the stream. The sim's
// fault driver calls this as edges fire; position inside the tick is
// informational (replays rebuild faults from the header schedule).
func (r *Recorder) Fault(edge fault.Edge) { r.w.Fault(edge) }

// NextAccessBatch implements workload.Workload, recording each drawn
// access.
func (r *Recorder) NextAccessBatch(ctx workload.Ctx, tick uint64, buf []pagetable.VPN) int {
	n := r.inner.NextAccessBatch(recCtx{ctx, r}, tick, buf)
	for _, v := range buf[:n] {
		r.w.Access(v)
	}
	return n
}

// DirtyProb implements workload.DirtyModel by delegation, so recording a
// workload does not alter its dirty-at-fault behaviour.
func (r *Recorder) DirtyProb(reg pagetable.Region) float64 {
	if dm, ok := r.inner.(workload.DirtyModel); ok {
		return dm.DirtyProb(reg)
	}
	return 0
}

// Err returns the first write error, if any.
func (r *Recorder) Err() error { return r.w.Err() }

// WorkloadErr implements workload.ErrorReporter by forwarding the
// wrapped workload's error (recording a replay stays fail-loud). The
// recorder's own write errors are surfaced via sim's RecordError, not
// here: a broken trace file does not invalidate the simulation.
func (r *Recorder) WorkloadErr() error {
	if er, ok := r.inner.(workload.ErrorReporter); ok {
		return er.WorkloadErr()
	}
	return nil
}

// Close ends the trace (final tick marker) and closes the writer.
func (r *Recorder) Close() error {
	if r.ticked {
		r.writeTickEnd()
	}
	return r.w.Close()
}

// recCtx forwards every machine call and mirrors the mutating ones into
// the trace. RNG passes through untouched via the embedded Ctx.
type recCtx struct {
	workload.Ctx
	rec *Recorder
}

// Mmap forwards the reservation and records the resulting region along
// with its dirty-at-fault probability.
func (c recCtx) Mmap(pages uint64, t mem.PageType) pagetable.Region {
	reg := c.Ctx.Mmap(pages, t)
	c.rec.w.Mmap(reg, c.rec.DirtyProb(reg))
	return reg
}

// Munmap records then forwards the teardown.
func (c recCtx) Munmap(reg pagetable.Region) {
	c.rec.w.Munmap(reg)
	c.Ctx.Munmap(reg)
}

// Touch records then forwards the access.
func (c recCtx) Touch(v pagetable.VPN) {
	c.rec.w.Touch(v)
	c.Ctx.Touch(v)
}

// TouchRange records one touch per page, as Touch would, then forwards
// the range whole. The embedded Ctx would forward it unrecorded.
func (c recCtx) TouchRange(start pagetable.VPN, n uint64) {
	for i := uint64(0); i < n; i++ {
		c.rec.w.Touch(start + pagetable.VPN(i))
	}
	c.Ctx.TouchRange(start, n)
}
