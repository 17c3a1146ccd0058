package trace

import (
	"fmt"
	"io"
	"sort"

	"tppsim/internal/metrics"
	"tppsim/internal/pagetable"
	"tppsim/internal/workload"
)

// ReplayOptions tune how a trace is re-driven.
type ReplayOptions struct {
	// Loop restarts the trace when it runs out, so a short trace can
	// drive an arbitrarily long run. If the set of live regions at the
	// end of the trace matches the set right after Start (no net churn),
	// the wrap is seamless: the start section is skipped and accesses
	// continue into the existing regions. Otherwise the workload
	// restarts: all live regions are unmapped and the start section is
	// replayed.
	Loop bool
	// MaxTicks truncates the trace to its first MaxTicks ticks (0 means
	// the whole trace). Combined with Loop, the truncated prefix loops.
	MaxTicks uint64
}

// Replayer deterministically re-drives a machine from a trace. It
// implements workload.Workload, so a trace can run under any policy,
// ratio, or latency configuration — the workload side of the run is
// replayed exactly while the kernel side reacts to it afresh.
//
// Recorded VPNs are translated through a live-region table (recorded
// region → region mmapped during replay), so replay does not depend on
// the replaying address space producing identical addresses.
type Replayer struct {
	tr   *Trace
	opts ReplayOptions

	r         *Reader
	pending   *Event
	live      []liveRegion
	baseline  []regionKey
	ticksSeen uint64
	exhausted bool
	needDrain bool
	err       error
}

// liveRegion joins a recorded region to the region backing it in the
// replaying machine. The slice is kept sorted by both recStart and
// actual.Start (both are monotonically assigned).
type liveRegion struct {
	recStart pagetable.VPN
	pages    uint64
	actual   pagetable.Region
	dirty    float64
}

type regionKey struct {
	recStart pagetable.VPN
	pages    uint64
}

var _ workload.Workload = (*Replayer)(nil)
var _ workload.DirtyModel = (*Replayer)(nil)
var _ workload.ErrorReporter = (*Replayer)(nil)
var _ workload.BatchAccessor = (*Replayer)(nil)

// Replayer returns a fresh replaying workload over the trace. Each call
// is independent; build one per machine when comparing policies.
func (t *Trace) Replayer(opts ReplayOptions) *Replayer {
	return &Replayer{tr: t, opts: opts}
}

// Name implements workload.Workload.
func (r *Replayer) Name() string { return r.tr.Header.Name }

// Model implements workload.Workload.
func (r *Replayer) Model() metrics.ThroughputModel { return r.tr.Header.Model }

// TotalPages implements workload.Workload.
func (r *Replayer) TotalPages() uint64 { return r.tr.Header.TotalPages }

// WarmupTicks implements workload.Workload.
func (r *Replayer) WarmupTicks() uint64 { return r.tr.Header.WarmupTicks }

// Err reports the first malformed-trace error hit during replay; the
// replayer stops driving accesses once one occurs.
func (r *Replayer) Err() error { return r.err }

// WorkloadErr implements workload.ErrorReporter, so the simulator marks
// a run driven by a corrupt trace as failed instead of letting the
// machine idle to a bogus result.
func (r *Replayer) WorkloadErr() error { return r.err }

// Start implements workload.Workload: replay the setup section.
func (r *Replayer) Start(ctx workload.Ctx) {
	r.live = r.live[:0]
	r.pending = nil
	r.err = nil
	r.exhausted = false
	r.needDrain = false
	r.ticksSeen = 0
	r.r = r.tr.Events()
	r.replayStart(ctx, true)
}

// replayStart consumes the start section. When apply is false the events
// are skipped without touching the machine (seamless loop wrap).
func (r *Replayer) replayStart(ctx workload.Ctx, apply bool) {
	for {
		e, ok := r.peek()
		if !ok {
			r.exhausted = true
			return
		}
		r.consume()
		if e.Op == OpStartEnd {
			break
		}
		if apply {
			r.apply(ctx, e)
			if r.err != nil {
				return
			}
		}
	}
	if apply {
		r.baseline = r.baseline[:0]
		for _, lr := range r.live {
			r.baseline = append(r.baseline, regionKey{lr.recStart, lr.pages})
		}
	}
}

// Tick implements workload.Workload: finish the previous recorded tick,
// then replay this tick's housekeeping events (mmap/munmap/touch) up to
// its access stream.
func (r *Replayer) Tick(ctx workload.Ctx, tick uint64) {
	if r.exhausted && !r.wrap(ctx) {
		return
	}
	if r.needDrain {
		r.needDrain = false
		r.drain(ctx)
		if r.exhausted && !r.wrap(ctx) {
			return
		}
	}
	if r.opts.MaxTicks > 0 && r.ticksSeen >= r.opts.MaxTicks {
		r.exhausted = true
		if !r.wrap(ctx) {
			return
		}
	}
	for {
		e, ok := r.peek()
		if !ok {
			r.exhausted = true
			break
		}
		if e.Op == OpAccess || e.Op == OpTickEnd {
			break
		}
		r.consume()
		if e.Op == OpStartEnd {
			continue
		}
		r.apply(ctx, e)
		if r.err != nil {
			return
		}
	}
	r.needDrain = true
}

// NextAccess implements workload.Workload: hand out the tick's next
// recorded access, translated into the replaying address space.
func (r *Replayer) NextAccess(ctx workload.Ctx, tick uint64) (pagetable.VPN, bool) {
	if r.exhausted {
		return 0, false
	}
	e, ok := r.peek()
	if !ok || e.Op != OpAccess {
		if !ok {
			r.exhausted = true
		}
		return 0, false
	}
	r.consume()
	v, found := r.translate(e.VPN)
	if !found {
		r.fail(fmt.Errorf("trace: access %d outside every live region", e.VPN))
		return 0, false
	}
	return v, true
}

// NextAccessBatch implements workload.BatchAccessor: decode the tick's
// recorded accesses straight off the event stream into buf, stopping at
// the first non-access event (left pending for Tick/drain) or a full
// buffer. Draw-for-draw identical to calling NextAccess len(buf) times
// — replay draws depend only on the trace and the live-region table,
// never on machine state mutated mid-tick — but skips the per-event
// peek/consume bookkeeping (and its pending-event allocation), so the
// simulator's batch loop can drive replays at profile speed.
func (r *Replayer) NextAccessBatch(ctx workload.Ctx, tick uint64, buf []pagetable.VPN) int {
	if r.exhausted {
		return 0
	}
	n := 0
	if r.pending != nil {
		if r.pending.Op != OpAccess {
			return 0
		}
		v, found := r.translate(r.pending.VPN)
		if !found {
			r.fail(fmt.Errorf("trace: access %d outside every live region", r.pending.VPN))
			return 0
		}
		r.pending = nil
		buf[n] = v
		n++
	}
	for n < len(buf) {
		e, err := r.r.Next()
		if err != nil {
			if err != io.EOF {
				r.fail(err)
			} else {
				r.exhausted = true
			}
			return n
		}
		if e.Op != OpAccess {
			r.pending = &e
			return n
		}
		v, found := r.translate(e.VPN)
		if !found {
			r.fail(fmt.Errorf("trace: access %d outside every live region", e.VPN))
			return n
		}
		buf[n] = v
		n++
	}
	return n
}

// DirtyProb implements workload.DirtyModel from the per-region
// probabilities recorded at mmap time.
func (r *Replayer) DirtyProb(reg pagetable.Region) float64 {
	i := sort.Search(len(r.live), func(i int) bool {
		return r.live[i].actual.Start >= reg.Start
	})
	if i < len(r.live) && r.live[i].actual.Start == reg.Start {
		return r.live[i].dirty
	}
	return 0
}

// drain consumes the remainder of the current recorded tick, through its
// TickEnd. Leftover accesses (the machine sampled fewer than were
// recorded) are dropped.
func (r *Replayer) drain(ctx workload.Ctx) {
	for {
		e, ok := r.peek()
		if !ok {
			r.exhausted = true
			return
		}
		r.consume()
		switch e.Op {
		case OpTickEnd:
			r.ticksSeen++
			return
		case OpAccess, OpStartEnd:
			// dropped
		default:
			r.apply(ctx, e)
			if r.err != nil {
				return
			}
		}
	}
}

// wrap handles running out of trace: restart when looping. It reports
// whether replay can continue.
func (r *Replayer) wrap(ctx workload.Ctx) bool {
	if !r.opts.Loop || r.err != nil {
		return false
	}
	soft := r.liveMatchesBaseline()
	if !soft {
		for i := len(r.live) - 1; i >= 0; i-- {
			ctx.Munmap(r.live[i].actual)
		}
		r.live = r.live[:0]
	}
	r.pending = nil
	r.exhausted = false
	r.needDrain = false
	r.ticksSeen = 0
	r.r = r.tr.Events()
	r.replayStart(ctx, !soft)
	return !r.exhausted && r.err == nil
}

// liveMatchesBaseline reports whether the live regions are exactly the
// post-Start set, making a seamless loop wrap possible.
func (r *Replayer) liveMatchesBaseline() bool {
	if len(r.live) != len(r.baseline) {
		return false
	}
	for i, lr := range r.live {
		if (regionKey{lr.recStart, lr.pages}) != r.baseline[i] {
			return false
		}
	}
	return true
}

// peek returns the next event without consuming it. ok is false at end
// of stream or on a decode error (recorded via fail).
func (r *Replayer) peek() (Event, bool) {
	if r.pending == nil {
		e, err := r.r.Next()
		if err != nil {
			// Clean end-of-stream is a bare io.EOF; wrapped EOFs from
			// Reader.Next mean a truncated event and are real errors.
			if err != io.EOF {
				r.fail(err)
			}
			return Event{}, false
		}
		r.pending = &e
	}
	return *r.pending, true
}

func (r *Replayer) consume() { r.pending = nil }

func (r *Replayer) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.exhausted = true
}

// apply executes one housekeeping event against the machine.
func (r *Replayer) apply(ctx workload.Ctx, e Event) {
	switch e.Op {
	case OpMmap:
		if e.Pages == 0 {
			r.fail(fmt.Errorf("trace: mmap of zero pages at %d", e.Start))
			return
		}
		actual := ctx.Mmap(e.Pages, e.Type)
		lr := liveRegion{recStart: e.Start, pages: e.Pages, actual: actual, dirty: e.Dirty}
		i := sort.Search(len(r.live), func(i int) bool { return r.live[i].recStart >= e.Start })
		if i < len(r.live) && r.live[i].recStart == e.Start {
			r.fail(fmt.Errorf("trace: duplicate mmap at recorded start %d", e.Start))
			return
		}
		r.live = append(r.live, liveRegion{})
		copy(r.live[i+1:], r.live[i:])
		r.live[i] = lr
	case OpMunmap:
		i := sort.Search(len(r.live), func(i int) bool { return r.live[i].recStart >= e.Start })
		if i >= len(r.live) || r.live[i].recStart != e.Start || r.live[i].pages != e.Pages {
			r.fail(fmt.Errorf("trace: munmap of unknown region %d+%d", e.Start, e.Pages))
			return
		}
		ctx.Munmap(r.live[i].actual)
		r.live = append(r.live[:i], r.live[i+1:]...)
	case OpTouch:
		v, found := r.translate(e.VPN)
		if !found {
			r.fail(fmt.Errorf("trace: touch %d outside every live region", e.VPN))
			return
		}
		ctx.Touch(v)
	case OpFault:
		// Informational (v6): the replaying machine rebuilds faults from
		// the header schedule; stream edges just document when each fired.
	default:
		r.fail(fmt.Errorf("trace: unexpected %s in housekeeping position", e.Op))
	}
}

// translate maps a recorded VPN into the replaying address space.
func (r *Replayer) translate(rec pagetable.VPN) (pagetable.VPN, bool) {
	i := sort.Search(len(r.live), func(i int) bool { return r.live[i].recStart > rec })
	if i == 0 {
		return 0, false
	}
	lr := &r.live[i-1]
	off := uint64(rec - lr.recStart)
	if off >= lr.pages {
		return 0, false
	}
	return lr.actual.Start + pagetable.VPN(off), true
}
