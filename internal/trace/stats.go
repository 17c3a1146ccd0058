package trace

import (
	"fmt"
	"io"

	"tppsim/internal/mem"
	"tppsim/internal/series"
	"tppsim/internal/vmstat"
)

// StatsOptions tune the series reconstruction of Trace.Stats.
type StatsOptions struct {
	// SampleEvery is the initial sampling cadence in ticks (default 1).
	// To reproduce a live-sampled series bit-for-bit, use the recording
	// run's Config.SampleEveryTicks.
	SampleEvery uint64
	// SampleBudget caps the retained samples (default
	// series.DefaultBudget); a full series halves itself and doubles
	// its cadence, exactly as the live sampler does.
	SampleBudget int
}

// Stats folds the trace's per-node TickEnd payload into a series.Series
// without constructing a machine: counter deltas accumulate into a
// node-indexed vmstat plane and sample into the series' delta columns,
// residency levels into its level columns. The decode is pure — no
// allocator, no LRUs, no policy — so analyzing a recorded run costs one
// pass over the encoded stream instead of a re-simulation.
//
// Because the decoder drives the same series.Sampler the live machine
// does, decoding a trace with the recording run's sampling options
// yields a Series bit-identical to the live-sampled
// metrics.Run.NodeSeries of that run (pinned by test). Streams whose
// TickEnds carry no levels decode with HasLevels() == false: flows only.
//
// Stats fails on traces that carry no per-node tick data (synthetic
// generator traces).
func (t *Trace) Stats(o StatsOptions) (*series.Series, error) {
	r := t.Events()
	var (
		smp    *series.Sampler
		stat   *vmstat.NodeStats
		levels []series.Levels
		tick   uint64
	)
	withLevels := false
	for {
		e, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if e.Op != OpTickEnd {
			continue
		}
		if smp == nil {
			if e.DeltaNodes == 0 {
				return nil, fmt.Errorf("trace: stream carries no per-node tick data (recorded without a stats plane)")
			}
			stat = vmstat.NewNodeStats(e.DeltaNodes)
			smp = series.NewSampler(e.DeltaNodes, series.Config{Every: o.SampleEvery, Budget: o.SampleBudget})
			withLevels = len(e.Levels) == e.DeltaNodes
			if withLevels {
				levels = make([]series.Levels, e.DeltaNodes)
			}
		}
		if e.DeltaNodes != stat.NumNodes() {
			return nil, fmt.Errorf("trace: tick %d records %d nodes, stream started with %d", tick, e.DeltaNodes, stat.NumNodes())
		}
		for _, d := range e.Deltas {
			stat.Add(mem.NodeID(d.Node), d.Counter, d.Delta)
		}
		if withLevels {
			if len(e.Levels) != stat.NumNodes() {
				return nil, fmt.Errorf("trace: tick %d lost its residency levels mid-stream", tick)
			}
			copy(levels, e.Levels)
		}
		if smp.Due(tick) {
			smp.Observe(tick, stat, levels)
		}
		tick++
	}
	if smp == nil {
		return nil, fmt.Errorf("trace: stream has no ticks")
	}
	// Close the final partial window, exactly as the live machine does at
	// the end of its run — the bit-identical contract covers the tail.
	smp.Flush(tick-1, stat, levels)
	return smp.Series(), nil
}
