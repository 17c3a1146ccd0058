package trace

import (
	"bytes"
	"testing"

	"tppsim/internal/fault"
	"tppsim/internal/mem"
	"tppsim/internal/pagetable"
	"tppsim/internal/series"
	"tppsim/internal/tier"
	"tppsim/internal/vmstat"
)

// seedParts selects the optional parts of a fuzz seed trace.
type seedParts struct {
	topology, faults, tracker bool // header blocks
	deltas, levels            bool // per-node TickEnd payload
	faultEdge                 bool // an applied OpFault edge
}

// fuzzSeedTrace renders one small trace: regions of every page type and
// delta-encoded accesses with large jumps, plus the optional parts p
// selects.
func fuzzSeedTrace(f *testing.F, p seedParts) []byte {
	f.Helper()
	h := Header{
		Name:        "fuzz-seed",
		TotalPages:  4096,
		WarmupTicks: 7,
	}
	h.Model.CPUServiceNs, h.Model.StallsPerOp = 312.5, 1.25
	if p.topology {
		topo, err := tier.PresetExpander(2, 1, 1).Build(4096, 0.1)
		if err != nil {
			f.Fatal(err)
		}
		spec := topo.Spec()
		h.Topology = &spec
	}
	if p.faults {
		h.Faults = &fault.Schedule{Seed: 3, Events: []fault.Event{
			{Kind: fault.NodeOffline, Node: 2, At: 10, Until: 20},
			{Kind: fault.MigFailBegin, Node: -1, At: 5, Prob: 0.5, MaxRetries: 2},
		}}
	}
	if p.tracker {
		h.Tracker = "idlepage:scan=8,gran=2,regions=128,samples=128,halflife=32,range=64"
	}
	var buf bytes.Buffer
	w := NewWriter(&buf, h)
	w.Mmap(pagetable.Region{Start: 0, Pages: 1 << 16, Type: mem.Anon}, 0.5)
	w.Mmap(pagetable.Region{Start: 1 << 20, Pages: 64, Type: mem.File}, 0.96)
	w.StartEnd()
	w.Touch(3)
	w.Access(1<<20 + 5)
	w.Access(12) // large backward delta
	if p.deltas {
		deltas := make([]vmstat.Snapshot, 3)
		deltas[0][0], deltas[2][1] = 7, 9
		var levels []series.Levels
		if p.levels {
			levels = []series.Levels{{Resident: 5, Anon: 3, File: 2}, {}, {Resident: 1}}
		}
		w.TickEndDeltas(deltas, levels)
	} else {
		w.TickEnd()
	}
	if p.faultEdge {
		w.Fault(fault.Edge{Kind: fault.NodeOffline, Node: 2, Tick: 10})
	}
	w.Munmap(pagetable.Region{Start: 1 << 20, Pages: 64, Type: mem.File})
	w.TickEnd()
	if err := w.Close(); err != nil {
		f.Fatalf("seed %+v: %v", p, err)
	}
	return buf.Bytes()
}

// FuzzTraceReader throws arbitrary bytes at the full decode path —
// header (magic, version, topology block, fault schedule, tracker spec)
// and event stream — and requires it to either produce events or return
// an error. It must never panic, loop forever, or allocate absurdly;
// corrupt and truncated input is an error, not a crash.
func FuzzTraceReader(f *testing.F) {
	all := seedParts{true, true, true, true, true, true}
	for _, p := range []seedParts{
		all,
		{},
		{topology: true, faults: true, tracker: true},
		{deltas: true},
		{deltas: true, levels: true},
		{faults: true, faultEdge: true},
		{topology: true, deltas: true, levels: true},
	} {
		f.Add(fuzzSeedTrace(f, p))
	}
	// Degenerate shapes the mutator should start from too.
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add([]byte("NOTATRACE___"))
	valid := fuzzSeedTrace(f, all)
	f.Add(valid[:len(valid)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return // malformed header: rejected cleanly
		}
		// Every event consumes at least its opcode byte, so the stream
		// can never yield more events than it has bytes; anything past
		// that bound means the reader stopped consuming input.
		for i := 0; i <= len(data); i++ {
			if _, err := r.Next(); err != nil {
				return // io.EOF or a decode error: both fine
			}
		}
		t.Fatalf("reader yielded more events than the %d input bytes", len(data))
	})
}
