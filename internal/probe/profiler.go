package probe

import "time"

// Phase identifies one slice of a simulator tick for wall-clock
// attribution. The phases partition Machine.Step: migration work driven
// by reclaim shows up under PhaseReclaim and promotion work under
// PhaseNUMAB (the per-page migration *model* costs have their own
// histograms in LatencySet; the profiler measures host wall-clock, not
// simulated time).
type Phase int

const (
	// PhaseWorkload is the workload generator's per-tick housekeeping
	// (phase shifts, working-set churn).
	PhaseWorkload Phase = iota
	// PhaseDraw is drawing the tick's access batch from the generator.
	PhaseDraw
	// PhaseTranslate is the batch virtual→physical translation pass
	// (including first-touch faults it triggers).
	PhaseTranslate
	// PhaseCharge is the charge loop over the translated batch:
	// latency accounting, LRU aging, NUMA hint checks.
	PhaseCharge
	// PhaseReclaim is the background reclaim daemon's tick, including
	// the demotions it drives.
	PhaseReclaim
	// PhaseNUMAB is the NUMA-balancing scanner's tick, including the
	// promotions it drives.
	PhaseNUMAB
	// PhaseControl covers the feedback controllers (autotier, TMO,
	// chameleon) that run after the engines.
	PhaseControl
	// PhaseFold is end-of-tick metrics folding and series sampling.
	PhaseFold

	// NumPhases is the number of phases.
	NumPhases = int(PhaseFold) + 1
)

var phaseNames = [NumPhases]string{
	"workload", "draw", "translate", "charge",
	"reclaim", "numab", "control", "fold",
}

// String returns the phase's short lowercase name.
func (p Phase) String() string {
	if p < 0 || int(p) >= NumPhases {
		return "unknown"
	}
	return phaseNames[p]
}

// PhaseProfiler attributes host wall-clock time within each tick to
// phases, one duration histogram (in nanoseconds) per phase. It is a
// stopwatch the tick loop laps: Begin at the top of the tick, Lap after
// each phase. All methods are nil-receiver safe so call sites need no
// guards — a nil profiler's Begin/Lap are single-branch no-ops.
//
// The profiler reads the host clock, so the recorded durations are
// nondeterministic run to run; nothing it measures ever feeds back into
// the simulation, so enabling it cannot change a run's results.
type PhaseProfiler struct {
	hist [NumPhases]Histogram
	last time.Time
}

// Begin marks the start of a tick (or of the next phase after time
// spent outside any phase).
func (p *PhaseProfiler) Begin() {
	if p == nil {
		return
	}
	p.last = time.Now()
}

// Lap charges the time since the previous Begin/Lap to ph and restarts
// the stopwatch.
func (p *PhaseProfiler) Lap(ph Phase) {
	if p == nil {
		return
	}
	now := time.Now()
	p.hist[ph].Observe(uint64(now.Sub(p.last)))
	p.last = now
}

// Hist returns the duration histogram for ph (nil receiver → nil).
func (p *PhaseProfiler) Hist(ph Phase) *Histogram {
	if p == nil {
		return nil
	}
	return &p.hist[ph]
}

// TotalNs returns the summed wall-clock across all phases.
func (p *PhaseProfiler) TotalNs() uint64 {
	if p == nil {
		return 0
	}
	var t uint64
	for i := range p.hist {
		t += p.hist[i].Sum()
	}
	return t
}

// Ticks returns the number of profiled ticks (the count of the fold
// phase, which closes every tick).
func (p *PhaseProfiler) Ticks() uint64 {
	if p == nil {
		return 0
	}
	return p.hist[PhaseFold].Count()
}
