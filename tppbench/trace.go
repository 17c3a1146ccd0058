package main

import (
	"time"

	"tppsim/internal/probe"
)

// traceRecord is one traced run as written to the -spans file. The
// layout is documented in the package comment.
type traceRecord struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Spans    []span   `json:"spans"`
	Ticks    tickCols `json:"ticks"`
}

// span is one benchmark step, timed from the run's start.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 for the root
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

// tickCols holds one entry per traced tick, in stepping order.
type tickCols struct {
	Leg     []int                `json:"leg"`
	StepNs  []float64            `json:"step_ns"`
	PhaseNs map[string][]float64 `json:"phase_ns"`
}

// tracer keeps spans in memory until the run is written out.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.origin)) / 1e3 }

func (t *tracer) begin(parent int, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, StartUs: t.now()})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].EndUs = t.now() }

// columns returns the traced pass's per-tick columns.
func (win *window) columns() tickCols {
	c := tickCols{Leg: win.legOf, StepNs: win.rawStep, PhaseNs: map[string][]float64{}}
	for ph := 0; ph < probe.NumPhases; ph++ {
		c.PhaseNs[probe.Phase(ph).String()] = win.rawPh[ph]
	}
	return c
}
