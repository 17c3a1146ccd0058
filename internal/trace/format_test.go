package trace

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"tppsim/internal/mem"
	"tppsim/internal/metrics"
	"tppsim/internal/pagetable"
	"tppsim/internal/tier"
	"tppsim/internal/xrand"
)

func testHeader() Header {
	return Header{
		Name:        "RoundTrip",
		Model:       metrics.ThroughputModel{CPUServiceNs: 312.5, StallsPerOp: 1.25},
		TotalPages:  96 * 1024,
		WarmupTicks: 120,
		Tracker:     "softdirty:scan=4,gran=1,regions=64,samples=64,halflife=16,range=32",
	}
}

// genEvents builds a pseudo-random but grammar-conforming event stream
// with large forward and backward VPN jumps to stress delta encoding.
func genEvents(n int) []Event {
	rng := xrand.New(42)
	var out []Event
	var nextStart pagetable.VPN
	type reg struct {
		start pagetable.VPN
		pages uint64
		t     mem.PageType
	}
	var live []reg
	mmap := func(pages uint64, t mem.PageType, dirty float64) {
		r := reg{nextStart, pages, t}
		nextStart += pagetable.VPN(pages) + 16
		live = append(live, r)
		out = append(out, Event{Op: OpMmap, Start: r.start, Pages: r.pages, Type: r.t, Dirty: dirty})
	}
	mmap(1<<20, mem.Anon, 0)
	mmap(1<<14, mem.File, 0.96)
	mmap(1, mem.Tmpfs, 0.5)
	out = append(out, Event{Op: OpStartEnd})
	for len(out) < n {
		switch rng.Intn(10) {
		case 0:
			mmap(rng.Uint64n(1<<16)+1, mem.PageType(rng.Intn(mem.NumPageTypes)), rng.Float64())
		case 1:
			if len(live) > 1 {
				i := rng.Intn(len(live))
				r := live[i]
				live = append(live[:i], live[i+1:]...)
				out = append(out, Event{Op: OpMunmap, Start: r.start, Pages: r.pages, Type: r.t})
			}
		case 2:
			out = append(out, Event{Op: OpTickEnd})
		default:
			r := live[rng.Intn(len(live))]
			op := OpAccess
			if rng.Bool(0.3) {
				op = OpTouch
			}
			out = append(out, Event{Op: op, VPN: r.start + pagetable.VPN(rng.Uint64n(r.pages))})
		}
	}
	out = append(out, Event{Op: OpTickEnd})
	return out
}

func writeStream(t *testing.T, h Header, events []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, h)
	for _, e := range events {
		w.WriteEvent(e)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("writer: %v", err)
	}
	return buf.Bytes()
}

func readAll(t *testing.T, r *Reader) []Event {
	t.Helper()
	var out []Event
	for {
		e, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("reader: %v", err)
		}
		out = append(out, e)
	}
}

func TestWriterReaderIdentity(t *testing.T) {
	h := testHeader()
	events := genEvents(5000)
	raw := writeStream(t, h, events)

	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if r.Header() != h {
		t.Fatalf("header mismatch:\n got %+v\nwant %+v", r.Header(), h)
	}
	got := readAll(t, r)
	if len(got) != len(events) {
		t.Fatalf("event count %d, want %d", len(got), len(events))
	}
	for i := range events {
		if !eventEq(got[i], events[i]) {
			t.Fatalf("event %d: got %+v want %+v", i, got[i], events[i])
		}
	}
}

func TestDecodeMatchesReader(t *testing.T) {
	h := testHeader()
	events := genEvents(300)
	raw := writeStream(t, h, events)
	tr, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Header != h {
		t.Fatalf("header mismatch: %+v", tr.Header)
	}
	got := readAll(t, tr.Events())
	if len(got) != len(events) {
		t.Fatalf("event count %d, want %d", len(got), len(events))
	}
	// Two independent cursors over the same Trace must not interfere.
	a, b := tr.Events(), tr.Events()
	ea, _ := a.Next()
	eb, _ := b.Next()
	if !eventEq(ea, eb) {
		t.Fatalf("independent cursors diverged: %+v vs %+v", ea, eb)
	}
}

func TestSaveLoadGzip(t *testing.T) {
	h := testHeader()
	events := genEvents(1000)
	tr, err := Decode(writeStream(t, h, events))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"t.trace", "t.trace.gz"} {
		path := filepath.Join(t.TempDir(), name)
		if err := tr.Save(path); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := Load(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Header != h {
			t.Fatalf("%s: header mismatch", name)
		}
		if !bytes.Equal(got.data, tr.data) {
			t.Fatalf("%s: event stream mismatch (%d vs %d bytes)", name, len(got.data), len(tr.data))
		}
	}
}

func TestCreateWritesGzip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.trace.gz")
	w, err := Create(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	w.Mmap(pagetable.Region{Start: 0, Pages: 64, Type: mem.Anon}, 0.25)
	w.StartEnd()
	w.Touch(5)
	w.Access(63)
	w.TickEnd()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, tr.Events())
	want := []Event{
		{Op: OpMmap, Pages: 64, Type: mem.Anon, Dirty: 0.25},
		{Op: OpStartEnd},
		{Op: OpTouch, VPN: 5},
		{Op: OpAccess, VPN: 63},
		{Op: OpTickEnd},
	}
	if len(got) != len(want) {
		t.Fatalf("events %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !eventEq(got[i], want[i]) {
			t.Fatalf("event %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestRejectsCorruptInput(t *testing.T) {
	if _, err := Decode([]byte("NOTATRACE___")); err == nil {
		t.Fatal("bad magic accepted")
	}
	raw := writeStream(t, testHeader(), genEvents(50))
	if _, err := Decode(raw[:len(Magic)+2]); err == nil {
		t.Fatal("truncated header accepted")
	}
	// Truncating mid-event must produce a non-EOF error from Next. End
	// the stream with a multi-byte event so dropping its last byte cuts
	// inside the event, not between events.
	raw = writeStream(t, testHeader(), []Event{
		{Op: OpMmap, Start: 0, Pages: 1 << 20, Type: mem.Anon, Dirty: 0.5},
	})
	tr, err := Decode(raw[:len(raw)-1])
	if err != nil {
		t.Fatal(err)
	}
	r := tr.Events()
	for {
		_, err := r.Next()
		if err == io.EOF {
			t.Fatal("truncated stream read cleanly to EOF")
		}
		if err != nil {
			break
		}
	}
}

func TestHeaderTopologyRoundTrip(t *testing.T) {
	topo, err := tier.PresetExpander(2, 1, 1).Build(16*1024, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	spec := topo.Spec()
	h := testHeader()
	h.Topology = &spec
	raw := writeStream(t, h, genEvents(100))
	tr, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	got := tr.Header.Topology
	if got == nil {
		t.Fatal("topology lost in round trip")
	}
	if got.Name != spec.Name || got.DemoteScaleFactor != spec.DemoteScaleFactor ||
		len(got.Nodes) != len(spec.Nodes) {
		t.Fatalf("topology mismatch: %+v", got)
	}
	for i := range spec.Nodes {
		if got.Nodes[i] != spec.Nodes[i] {
			t.Errorf("node %d: got %+v want %+v", i, got.Nodes[i], spec.Nodes[i])
		}
		for j := range spec.Nodes {
			if got.Distance[i][j] != spec.Distance[i][j] {
				t.Errorf("distance[%d][%d] = %d, want %d", i, j, got.Distance[i][j], spec.Distance[i][j])
			}
		}
	}
	// The recorded spec must rebuild the identical machine.
	rebuilt, err := got.Build(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < topo.NumNodes(); i++ {
		id := mem.NodeID(i)
		if rebuilt.Node(id).Capacity != topo.Node(id).Capacity || rebuilt.Node(id).WM != topo.Node(id).WM {
			t.Errorf("rebuilt node %d differs", i)
		}
	}
}

func TestUnresolvedTopologyRejectedAtWrite(t *testing.T) {
	// Preset specs carry ratio Shares and a nil Distance matrix; the
	// binary block only represents resolved machines, so writing one
	// must fail loudly instead of emitting a block the reader would
	// misparse as event bytes.
	h := testHeader()
	unresolved := tier.PresetCXL(2, 1)
	h.Topology = &unresolved
	var buf bytes.Buffer
	w := NewWriter(&buf, h)
	if w.Err() == nil {
		t.Fatal("unresolved (Share-based) topology accepted")
	}
	topo, err := tier.PresetCXL(2, 1).Build(4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	resolved := topo.Spec()
	resolved.Distance = nil
	h.Topology = &resolved
	if w := NewWriter(&buf, h); w.Err() == nil {
		t.Fatal("nil distance matrix accepted")
	}
}

// TestRejectsOtherVersions pins the one-version format: a header of
// any version but Version fails to decode with an error that names the
// version and says to re-record the trace.
func TestRejectsOtherVersions(t *testing.T) {
	raw := writeStream(t, testHeader(), genEvents(20))
	if _, err := Decode(raw); err != nil {
		t.Fatalf("current version: %v", err)
	}
	for _, v := range []byte{1, 6, 8} {
		old := append([]byte(nil), raw...)
		old[len(Magic)] = v // Version is a one-byte varint right after the magic
		_, err := Decode(old)
		if err == nil {
			t.Fatalf("version %d header decoded", v)
		}
		if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("version %d ", v)) || !strings.Contains(msg, "re-record") {
			t.Errorf("version %d: error %q does not name the version and say to re-record", v, msg)
		}
	}
}

func TestTruncationAlwaysDetected(t *testing.T) {
	// Streams end with an explicit OpEnd marker, so truncation
	// is detected at EVERY cut point of the event stream — including cuts
	// that land exactly on an event boundary.
	raw := writeStream(t, testHeader(), genEvents(60))
	full, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	headerLen := len(raw) - full.Size()
	for cut := headerLen; cut < len(raw); cut++ {
		tr, err := Decode(raw[:cut])
		if err != nil {
			continue // header-region cuts may fail outright: also fine
		}
		r := tr.Events()
		for {
			_, err := r.Next()
			if err == io.EOF {
				t.Fatalf("cut at %d/%d read cleanly to EOF", cut, len(raw))
			}
			if err != nil {
				break
			}
		}
	}
}

// TestTruncationErrorNamesOffsetAndTick pins the diagnostic contract
// for malformed streams: the error from Next names the byte offset (in
// the cursor's view of the event stream) and the tick it tripped on, so
// a corrupt artifact can be located without a hex dump.
func TestTruncationErrorNamesOffsetAndTick(t *testing.T) {
	events := []Event{
		{Op: OpMmap, Start: 0, Pages: 4096, Type: mem.Anon, Dirty: 0.5},
		{Op: OpStartEnd},
		{Op: OpAccess, VPN: 7},
		{Op: OpTickEnd},
		{Op: OpAccess, VPN: 9},
		{Op: OpTickEnd},
		// A multi-byte final event, so dropping the stream's tail cuts
		// mid-event after exactly two complete ticks.
		{Op: OpMmap, Start: 1 << 30, Pages: 1 << 20, Type: mem.File, Dirty: 0.25},
	}
	raw := writeStream(t, testHeader(), events)
	tr, err := Decode(raw[:len(raw)-9]) // cut inside the trailing mmap
	if err != nil {
		t.Fatal(err)
	}
	r := tr.Events()
	var decodeErr error
	for {
		_, err := r.Next()
		if err == io.EOF {
			t.Fatal("truncated stream read cleanly to EOF")
		}
		if err != nil {
			decodeErr = err
			break
		}
	}
	msg := decodeErr.Error()
	if !strings.Contains(msg, "byte offset ") {
		t.Errorf("error %q does not name the byte offset", msg)
	}
	if !strings.Contains(msg, "tick 2)") {
		t.Errorf("error %q does not name tick 2 (the last complete tick)", msg)
	}
}

func TestZigzag(t *testing.T) {
	for _, d := range []int64{0, 1, -1, 63, -64, math.MaxInt64, math.MinInt64} {
		if got := unzigzag(zigzag(d)); got != d {
			t.Fatalf("zigzag(%d) round-tripped to %d", d, got)
		}
	}
}

// TestGeneratorsWellFormed walks each generated scenario with a mini
// interpreter, checking the stream grammar and that every touch/access
// lands inside a live region.
func TestGeneratorsWellFormed(t *testing.T) {
	cfg := GenConfig{Pages: 2048, Minutes: 2, AccessesPerTick: 50, Seed: 9}
	for name, tr := range map[string]*Trace{
		"PhaseShift": PhaseShift(cfg),
		"SeqScan":    SequentialScan(cfg),
		"AdvChurn":   AdversarialChurn(cfg),
	} {
		t.Run(name, func(t *testing.T) {
			if tr.Header.Name == "" || tr.Header.TotalPages != cfg.Pages {
				t.Fatalf("bad header %+v", tr.Header)
			}
			type span struct {
				start pagetable.VPN
				pages uint64
			}
			var live []span
			contains := func(v pagetable.VPN) bool {
				for _, s := range live {
					if v >= s.start && v < s.start+pagetable.VPN(s.pages) {
						return true
					}
				}
				return false
			}
			ticks, accesses := 0, 0
			sawStartEnd := false
			var lastStart pagetable.VPN
			r := tr.Events()
			for {
				e, err := r.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				switch e.Op {
				case OpMmap:
					if len(live) > 0 && e.Start <= lastStart {
						t.Fatalf("mmap starts not strictly increasing: %d after %d", e.Start, lastStart)
					}
					lastStart = e.Start
					live = append(live, span{e.Start, e.Pages})
				case OpMunmap:
					found := false
					for i, s := range live {
						if s.start == e.Start && s.pages == e.Pages {
							live = append(live[:i], live[i+1:]...)
							found = true
							break
						}
					}
					if !found {
						t.Fatalf("munmap of unknown region %d", e.Start)
					}
				case OpTouch, OpAccess:
					if !contains(e.VPN) {
						t.Fatalf("%s %d outside live regions", e.Op, e.VPN)
					}
					if e.Op == OpAccess {
						accesses++
					}
				case OpTickEnd:
					ticks++
				case OpStartEnd:
					sawStartEnd = true
				}
			}
			if !sawStartEnd {
				t.Fatal("no StartEnd marker")
			}
			if want := cfg.Minutes * 60; ticks != want {
				t.Fatalf("ticks = %d, want %d", ticks, want)
			}
			if want := cfg.Minutes * 60 * cfg.AccessesPerTick; accesses != want {
				t.Fatalf("accesses = %d, want %d", accesses, want)
			}
		})
	}
}

// eventEq compares two events field by field (Event holds a slice, so
// == no longer applies).
func eventEq(a, b Event) bool {
	if a.Op != b.Op || a.Start != b.Start || a.Pages != b.Pages ||
		a.Type != b.Type || a.Dirty != b.Dirty || a.VPN != b.VPN ||
		a.DeltaNodes != b.DeltaNodes || len(a.Deltas) != len(b.Deltas) {
		return false
	}
	for i := range a.Deltas {
		if a.Deltas[i] != b.Deltas[i] {
			return false
		}
	}
	return true
}
