package trace_test

import (
	"bytes"
	"io"
	"path/filepath"
	"testing"

	"tppsim/internal/core"
	"tppsim/internal/mem"
	"tppsim/internal/sim"
	"tppsim/internal/tier"
	"tppsim/internal/trace"
	"tppsim/internal/vmstat"
	"tppsim/internal/workload"
)

// recordSampledRun records one run with the live series plane sampling
// at the given cadence and returns the machine and the loaded trace.
func recordSampledRun(t *testing.T, dir string, every, budget int) (*sim.Machine, *trace.Trace) {
	t.Helper()
	path := filepath.Join(dir, "sampled.trace")
	m, err := sim.New(sim.Config{
		Seed:             11,
		Policy:           core.TPP(),
		Workload:         workload.Catalog["Cache2"](4 * 1024),
		Topology:         tier.PresetCXL(2, 1),
		Minutes:          5,
		RecordTo:         path,
		SampleEveryTicks: every,
		SampleBudget:     budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res := m.Run(); res.Failed {
		t.Fatal(res.FailReason)
	}
	if err := m.RecordError(); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return m, tr
}

// TestStatsBitIdenticalToLiveSeries pins the PR's convergence contract:
// the series trace.Stats reconstructs from a v4 trace's per-node
// TickEnd payload — counters AND residency levels — is bit-identical to
// the live-sampled series of the recording run, across cadences and
// through budget-forced coarsening.
func TestStatsBitIdenticalToLiveSeries(t *testing.T) {
	cases := []struct {
		name   string
		every  int
		budget int
	}{
		{"every-tick", 1, 512},
		{"cadence-7", 7, 512},
		{"coarsened", 1, 64}, // 300 ticks over a 64-sample budget coarsens thrice
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			m, tr := recordSampledRun(t, t.TempDir(), tc.every, tc.budget)
			live := m.Results().NodeSeries
			if live == nil || live.Len() == 0 {
				t.Fatal("live run sampled no series")
			}
			if !live.HasLevels() {
				t.Fatal("live series has no levels")
			}
			decoded, err := tr.Stats(trace.StatsOptions{
				SampleEvery:  uint64(tc.every),
				SampleBudget: tc.budget,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !decoded.HasLevels() {
				t.Fatal("decoded series has no levels (v4 payload lost)")
			}
			if !decoded.Equal(live) {
				t.Fatalf("decoded series diverges from live-sampled series: live %d windows x %d ticks, decoded %d x %d",
					live.Len(), live.Cadence(), decoded.Len(), decoded.Cadence())
			}
			if tc.budget == 64 && decoded.Cadence() == uint64(tc.every) {
				t.Fatal("coarsening case never coarsened; the pin is weaker than intended")
			}
		})
	}
}

// TestStatsFlowsWithoutLevels pins the flows-only decode: a stream whose
// TickEnds carry counter deltas but no residency levels (a recorder
// whose machine offers no NodeLevelsSource) decodes to the same deltas
// as the full stream, with HasLevels false.
func TestStatsFlowsWithoutLevels(t *testing.T) {
	_, tr := recordSampledRun(t, t.TempDir(), 1, 512)

	// Re-encode the same events with every TickEnd's levels dropped.
	var buf bytes.Buffer
	w := trace.NewWriter(&buf, tr.Header)
	r := tr.Events()
	for {
		e, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		e.Levels = nil
		w.WriteEvent(e)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	flows, err := trace.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if flows.Size() >= tr.Size() {
		t.Errorf("levels-free stream (%d B) not smaller than the full one (%d B)", flows.Size(), tr.Size())
	}

	full, err := tr.Stats(trace.StatsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := flows.Stats(trace.StatsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.HasLevels() {
		t.Error("levels-free decode claims levels")
	}
	if got.Len() != full.Len() || got.Cadence() != full.Cadence() {
		t.Fatalf("levels-free decode shape %dx%d != full %dx%d", got.Len(), got.Cadence(), full.Len(), full.Cadence())
	}
	for n := 0; n < full.Nodes(); n++ {
		for c := 0; c < vmstat.NumCounters; c++ {
			for i := 0; i < full.Len(); i++ {
				if got.Delta(n, vmstat.Counter(c), i) != full.Delta(n, vmstat.Counter(c), i) {
					t.Fatalf("node %d %s window %d: levels-free delta diverges", n, vmstat.Counter(c), i)
				}
			}
		}
	}
}

// TestStatsRejectsStreamsWithoutPlane pins the failure mode: generator
// traces carry no per-node tick data, so Stats fails instead of
// returning an empty series.
func TestStatsRejectsStreamsWithoutPlane(t *testing.T) {
	tr := trace.SequentialScan(trace.GenConfig{Pages: 1024, Minutes: 1, AccessesPerTick: 50, Seed: 1})
	if _, err := tr.Stats(trace.StatsOptions{}); err == nil {
		t.Fatal("Stats accepted a generator trace with no per-node data")
	}
}

// recordRun records one fixed run and returns the recording machine and
// the loaded trace.
func recordRun(t *testing.T, dir string) (*sim.Machine, *trace.Trace) {
	t.Helper()
	path := filepath.Join(dir, "run.trace")
	m, err := sim.New(sim.Config{
		Seed:     11,
		Policy:   core.TPP(),
		Workload: workload.Catalog["Cache2"](4 * 1024),
		Topology: tier.PresetCXL(2, 1),
		Minutes:  5,
		RecordTo: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res := m.Run(); res.Failed {
		t.Fatal(res.FailReason)
	}
	if err := m.RecordError(); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return m, tr
}

// TestTickEndDeltasSumToFinalCounters pins the TickEnd payload's meaning:
// accumulating every TickEnd's per-node deltas over the whole stream
// reproduces the recording machine's final per-node (and hence global)
// vmstat counters exactly.
func TestTickEndDeltasSumToFinalCounters(t *testing.T) {
	m, tr := recordRun(t, t.TempDir())
	sums := make([]vmstat.Snapshot, m.Stat().NumNodes())
	r := tr.Events()
	ticks := 0
	for {
		e, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if e.Op != trace.OpTickEnd {
			continue
		}
		ticks++
		if e.DeltaNodes != len(sums) {
			t.Fatalf("tick %d records %d nodes, machine has %d", ticks, e.DeltaNodes, len(sums))
		}
		for _, d := range e.Deltas {
			sums[d.Node][d.Counter] += d.Delta
		}
	}
	if ticks == 0 {
		t.Fatal("no ticks in trace")
	}
	for n := range sums {
		want := m.Stat().NodeSnapshot(mem.NodeID(n))
		if sums[n] != want {
			t.Errorf("node %d: delta sum diverges from final counters:\n got:\n%s want:\n%s",
				n, sums[n].String(), want.String())
		}
	}
}
