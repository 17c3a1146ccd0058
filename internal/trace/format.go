// Package trace is the simulator's access-trace record/replay engine.
// It captures the full event stream a workload drives into a machine —
// region creation and teardown, explicit touches, and the sampled access
// stream — into a compact binary trace that can be stored as an artifact
// and deterministically re-driven under any placement policy. The design
// mirrors the tracker/policy split of memory-tiering daemons: trackers
// (here: a Recorder wrapping a live workload, or a synthetic Generator)
// emit access streams, and policies consume them via the Replayer, which
// implements workload.Workload.
//
// # Trace format
//
// A trace is a header followed by a flat event stream. All integers are
// unsigned LEB128 varints unless noted; floats are IEEE-754 bits in
// little-endian order. Files whose content starts with the gzip magic are
// transparently decompressed on load, and paths ending in ".gz" are
// compressed on write.
//
//	header:
//	  magic      8 bytes  "TPPTRACE"
//	  version    varint   Version (7), the only version read or written
//	  name       varint length + UTF-8 bytes (workload display name)
//	  cpuns      8 bytes  float64 ThroughputModel.CPUServiceNs
//	  stalls     8 bytes  float64 ThroughputModel.StallsPerOp
//	  pages      varint   workload TotalPages (machine sizing)
//	  warmup     varint   workload WarmupTicks
//	  topo                1 presence byte; when 1, the resolved machine
//	                      topology: name (varint length + bytes), demote
//	                      scale factor (float64), node count (varint),
//	                      then per node kind byte + capacity varint +
//	                      latency float64 + bandwidth float64, then the
//	                      row-major distance matrix as varints
//	  faults              1 presence byte; when 1, the fault schedule the
//	                      run was recorded with: seed varint, event count
//	                      varint, then per event kind byte, node (zigzag
//	                      varint; -1 = machine-wide), at varint, until
//	                      varint, mult float64, jitter float64, prob
//	                      float64, retries varint, pages varint — enough
//	                      for a replay to rebuild and re-apply the
//	                      identical schedule
//	  tracker             varint length + bytes: the tracker-plane spec
//	                      the run was recorded with (empty when off)
//
// A trace of any other version fails to load with an error that names
// its version and says to re-record it.
//
//	event: 1 opcode byte + operands
//	  OpMmap     (0x01)  start varint, pages varint, type byte,
//	                     dirty-prob float64 — region creation
//	  OpMunmap   (0x02)  start varint, pages varint, type byte
//	  OpTouch    (0x03)  zigzag varint delta of VPN vs. previous Touch/Access
//	  OpAccess   (0x04)  same encoding; an access of the tick's drawn batch
//	  OpTickEnd  (0x05)  closes one simulated tick: a varint node count
//	                     (0 = no per-node data), then per node a varint
//	                     pair count followed by (counter byte, delta
//	                     varint) pairs — the non-zero per-node vmstat
//	                     counter deltas the recorded machine accumulated
//	                     during the tick. When the node count is
//	                     non-zero: one presence byte, then — when 1 —
//	                     per node three varints (resident, anon, file
//	                     pages) — the node's residency levels at the
//	                     tick's end, which trace.Stats folds into the
//	                     series plane's level columns
//	  OpStartEnd (0x06)  closes the Start (setup) section
//	  OpEnd      (0x07)  closes the stream (written by Close)
//	  OpFault    (0x08)  one applied fault edge: kind byte, node
//	                     zigzag varint, tick varint, arg float64,
//	                     retries varint, pages varint. Informational —
//	                     replays rebuild faults from the header schedule
//	                     and skip these; they document when each edge
//	                     actually fired
//
// The stream grammar is: start-section events, OpStartEnd, then per tick
// any housekeeping events (mmap/munmap/touch), the tick's accesses, and
// OpTickEnd; the stream ends with OpEnd, so a trace truncated even
// exactly on an event boundary is detected as malformed rather than
// silently replaying short. Replays ignore the TickEnd deltas and levels
// (they describe the recorded machine, not the replaying one).
// Touch/Access VPNs are delta-encoded against the previous Touch/Access
// VPN, which keeps hot-set streams to ~2 bytes per event.
// Region start VPNs are strictly increasing over the life of the stream
// (the recorder's address space never reuses addresses), which the
// Replayer relies on to translate recorded VPNs into its own regions.
package trace

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"tppsim/internal/fault"
	"tppsim/internal/mem"
	"tppsim/internal/metrics"
	"tppsim/internal/pagetable"
	"tppsim/internal/series"
	"tppsim/internal/tier"
	"tppsim/internal/vmstat"
	"tppsim/internal/workload"
)

// Magic identifies a trace file.
const Magic = "TPPTRACE"

// Version is the trace-format version, the only one this package reads
// and writes. Every trace comes from a recording run or a generator, so
// a trace of another version is re-recorded rather than converted.
const Version = 7

// Header carries the workload identity a trace was captured from: enough
// for the Replayer to satisfy the workload.Workload interface and for a
// machine to be sized identically to the recorded run.
type Header struct {
	Name        string
	Model       metrics.ThroughputModel
	TotalPages  uint64
	WarmupTicks uint64
	// Topology, when non-nil, is the resolved machine the trace was
	// recorded on (absolute per-node capacities, traits, distances), so
	// a replay can rebuild the identical machine. The simulator fills it
	// in when recording; synthetic generators leave it nil.
	Topology *tier.Spec
	// Faults, when non-nil, is the fault schedule the recorded run was
	// injected with, so a replay can re-apply the identical faults. nil
	// for faults-off runs.
	Faults *fault.Schedule
	// Tracker, when non-empty, is the tracker-plane spec string the
	// recorded run was observed with (tracker.ParseSpec format), so a
	// replay can rebuild the identical plane. Empty for tracker-off runs.
	Tracker string
}

// HeaderFor builds a Header describing the given workload.
func HeaderFor(wl workload.Workload) Header {
	return Header{
		Name:        wl.Name(),
		Model:       wl.Model(),
		TotalPages:  wl.TotalPages(),
		WarmupTicks: wl.WarmupTicks(),
	}
}

// Op is a trace event opcode.
type Op uint8

// Trace event opcodes; see the package doc for operand layouts.
const (
	OpInvalid Op = iota
	OpMmap
	OpMunmap
	OpTouch
	OpAccess
	OpTickEnd
	OpStartEnd
	OpEnd
	OpFault
)

// String returns the opcode mnemonic.
func (o Op) String() string {
	switch o {
	case OpMmap:
		return "mmap"
	case OpMunmap:
		return "munmap"
	case OpTouch:
		return "touch"
	case OpAccess:
		return "access"
	case OpTickEnd:
		return "tickend"
	case OpStartEnd:
		return "startend"
	case OpEnd:
		return "end"
	case OpFault:
		return "fault"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// NodeCounterDelta is one per-node counter increment carried by a
// TickEnd event: node Node's Counter grew by Delta during the tick.
type NodeCounterDelta struct {
	Node    int
	Counter vmstat.Counter
	Delta   uint64
}

// Event is one decoded trace record. Fields are populated per opcode:
// Mmap uses Start/Pages/Type/Dirty, Munmap uses Start/Pages/Type,
// Touch/Access use VPN, TickEnd carries the recorded machine's per-node
// vmstat deltas and levels, and Fault carries an applied fault edge.
type Event struct {
	Op    Op
	Start pagetable.VPN // Mmap/Munmap: region start in the recorded space
	Pages uint64        // Mmap/Munmap: region size
	Type  mem.PageType  // Mmap/Munmap: page type
	Dirty float64       // Mmap: dirty-at-fault probability for the region
	VPN   pagetable.VPN // Touch/Access: the touched virtual page

	// DeltaNodes is the machine node count a TickEnd recorded (0 when
	// the writer attached no per-node data); Deltas lists the
	// tick's non-zero per-node counter increments, grouped by node in
	// ascending order. For events returned by Reader.Next, Deltas
	// aliases a reader-owned scratch buffer valid until the next Next
	// call — copy it to retain.
	DeltaNodes int
	Deltas     []NodeCounterDelta

	// Levels carries each node's residency at the tick's end (len ==
	// DeltaNodes when present, nil when the writer had no residency
	// source). Like Deltas, it aliases reader-owned scratch.
	Levels []series.Levels

	// Fault carries an OpFault event's applied edge: the kind, target
	// node, tick it fired, and the kind's scalar operands.
	Fault fault.Edge
}

// Region returns the recorded region of an Mmap/Munmap event.
func (e Event) Region() pagetable.Region {
	return pagetable.Region{Start: e.Start, Pages: e.Pages, Type: e.Type}
}

// encodeHeader renders a header to its binary form.
func encodeHeader(h Header) []byte {
	buf := make([]byte, 0, 64)
	buf = append(buf, Magic...)
	buf = binary.AppendUvarint(buf, Version)
	buf = binary.AppendUvarint(buf, uint64(len(h.Name)))
	buf = append(buf, h.Name...)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(h.Model.CPUServiceNs))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(h.Model.StallsPerOp))
	buf = binary.AppendUvarint(buf, h.TotalPages)
	buf = binary.AppendUvarint(buf, h.WarmupTicks)
	buf = appendTopology(buf, h.Topology)
	buf = appendFaults(buf, h.Faults)
	buf = binary.AppendUvarint(buf, uint64(len(h.Tracker)))
	return append(buf, h.Tracker...)
}

// appendFaults renders the optional fault-schedule block.
func appendFaults(buf []byte, s *fault.Schedule) []byte {
	if s == nil || s.Empty() {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	buf = binary.AppendUvarint(buf, s.Seed)
	buf = binary.AppendUvarint(buf, uint64(len(s.Events)))
	for _, e := range s.Events {
		buf = append(buf, byte(e.Kind))
		buf = binary.AppendUvarint(buf, zigzag(int64(e.Node)))
		buf = binary.AppendUvarint(buf, e.At)
		buf = binary.AppendUvarint(buf, e.Until)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Mult))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Jitter))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Prob))
		buf = binary.AppendUvarint(buf, uint64(e.MaxRetries))
		buf = binary.AppendUvarint(buf, e.Pages)
	}
	return buf
}

// readFaults parses the fault-schedule block of a header.
func readFaults(r byteStream) (*fault.Schedule, error) {
	present, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("trace: reading fault marker: %w", err)
	}
	if present == 0 {
		return nil, nil
	}
	if present != 1 {
		return nil, fmt.Errorf("trace: bad fault marker %d", present)
	}
	var s fault.Schedule
	if s.Seed, err = binary.ReadUvarint(r); err != nil {
		return nil, fmt.Errorf("trace: reading fault seed: %w", err)
	}
	count, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("trace: reading fault event count: %w", err)
	}
	if count > 4096 {
		return nil, fmt.Errorf("trace: absurd fault event count %d", count)
	}
	s.Events = make([]fault.Event, count)
	for i := range s.Events {
		e := &s.Events[i]
		kind, err := r.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: reading fault %d kind: %w", i, err)
		}
		e.Kind = fault.Kind(kind)
		node, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("trace: reading fault %d node: %w", i, err)
		}
		e.Node = int(unzigzag(node))
		if e.Node < -1 || e.Node > 127 {
			return nil, fmt.Errorf("trace: fault %d has bad node %d", i, e.Node)
		}
		if e.At, err = binary.ReadUvarint(r); err != nil {
			return nil, fmt.Errorf("trace: reading fault %d tick: %w", i, err)
		}
		if e.Until, err = binary.ReadUvarint(r); err != nil {
			return nil, fmt.Errorf("trace: reading fault %d until: %w", i, err)
		}
		var f [24]byte
		if _, err := io.ReadFull(r, f[:]); err != nil {
			return nil, fmt.Errorf("trace: reading fault %d operands: %w", i, err)
		}
		e.Mult = math.Float64frombits(binary.LittleEndian.Uint64(f[0:8]))
		e.Jitter = math.Float64frombits(binary.LittleEndian.Uint64(f[8:16]))
		e.Prob = math.Float64frombits(binary.LittleEndian.Uint64(f[16:24]))
		retries, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("trace: reading fault %d retries: %w", i, err)
		}
		if retries > 1<<20 {
			return nil, fmt.Errorf("trace: fault %d has absurd retry bound %d", i, retries)
		}
		e.MaxRetries = int(retries)
		if e.Pages, err = binary.ReadUvarint(r); err != nil {
			return nil, fmt.Errorf("trace: reading fault %d pages: %w", i, err)
		}
	}
	return &s, nil
}

// appendTopology renders the optional topology block. Only resolved
// (absolute-Pages) specs are meaningful here; Share fields are not
// serialized.
func appendTopology(buf []byte, s *tier.Spec) []byte {
	if s == nil {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	buf = binary.AppendUvarint(buf, uint64(len(s.Name)))
	buf = append(buf, s.Name...)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.DemoteScaleFactor))
	buf = binary.AppendUvarint(buf, uint64(len(s.Nodes)))
	for _, n := range s.Nodes {
		buf = append(buf, byte(n.Kind))
		buf = binary.AppendUvarint(buf, n.Pages)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(n.LoadLatencyNs))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(n.BandwidthMBps))
	}
	for _, row := range s.Distance {
		for _, d := range row {
			buf = binary.AppendUvarint(buf, uint64(d))
		}
	}
	return buf
}

// readTopology parses the topology block of a header.
func readTopology(r byteStream) (*tier.Spec, error) {
	present, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("trace: reading topology marker: %w", err)
	}
	if present == 0 {
		return nil, nil
	}
	var s tier.Spec
	nameLen, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("trace: reading topology name: %w", err)
	}
	if nameLen > 1<<12 {
		return nil, fmt.Errorf("trace: absurd topology name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(r, name); err != nil {
		return nil, fmt.Errorf("trace: reading topology name: %w", err)
	}
	s.Name = string(name)
	var f [8]byte
	if _, err := io.ReadFull(r, f[:]); err != nil {
		return nil, fmt.Errorf("trace: reading demote scale factor: %w", err)
	}
	s.DemoteScaleFactor = math.Float64frombits(binary.LittleEndian.Uint64(f[:]))
	count, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("trace: reading topology node count: %w", err)
	}
	if count == 0 || count > 127 {
		return nil, fmt.Errorf("trace: bad topology node count %d", count)
	}
	s.Nodes = make([]tier.NodeSpec, count)
	for i := range s.Nodes {
		kind, err := r.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: reading node %d kind: %w", i, err)
		}
		if kind > byte(mem.KindCXL) {
			return nil, fmt.Errorf("trace: node %d has unknown kind %d", i, kind)
		}
		pages, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("trace: reading node %d pages: %w", i, err)
		}
		var t [16]byte
		if _, err := io.ReadFull(r, t[:]); err != nil {
			return nil, fmt.Errorf("trace: reading node %d traits: %w", i, err)
		}
		s.Nodes[i] = tier.NodeSpec{
			Kind:          mem.NodeKind(kind),
			Pages:         pages,
			LoadLatencyNs: math.Float64frombits(binary.LittleEndian.Uint64(t[0:8])),
			BandwidthMBps: math.Float64frombits(binary.LittleEndian.Uint64(t[8:16])),
		}
	}
	s.Distance = make([][]int, count)
	for i := range s.Distance {
		s.Distance[i] = make([]int, count)
		for j := range s.Distance[i] {
			d, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, fmt.Errorf("trace: reading distance[%d][%d]: %w", i, j, err)
			}
			s.Distance[i][j] = int(d)
		}
	}
	return &s, nil
}

// byteStream is what header/event decoding needs: bufio.Reader and
// bytes.Reader both satisfy it.
type byteStream interface {
	io.Reader
	io.ByteReader
}

// readHeader parses and validates a header from the stream.
func readHeader(r byteStream) (Header, error) {
	var magic [len(Magic)]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return Header{}, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic[:]) != Magic {
		return Header{}, fmt.Errorf("trace: bad magic %q", magic[:])
	}
	var h Header
	v, err := binary.ReadUvarint(r)
	if err != nil {
		return Header{}, fmt.Errorf("trace: reading version: %w", err)
	}
	if v != Version {
		return Header{}, fmt.Errorf("trace: format version %d is not readable (this build reads version %d only); re-record the trace", v, Version)
	}
	nameLen, err := binary.ReadUvarint(r)
	if err != nil {
		return Header{}, fmt.Errorf("trace: reading name length: %w", err)
	}
	if nameLen > 1<<16 {
		return Header{}, fmt.Errorf("trace: absurd name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(r, name); err != nil {
		return Header{}, fmt.Errorf("trace: reading name: %w", err)
	}
	h.Name = string(name)
	var f [16]byte
	if _, err := io.ReadFull(r, f[:]); err != nil {
		return Header{}, fmt.Errorf("trace: reading model: %w", err)
	}
	h.Model.CPUServiceNs = math.Float64frombits(binary.LittleEndian.Uint64(f[0:8]))
	h.Model.StallsPerOp = math.Float64frombits(binary.LittleEndian.Uint64(f[8:16]))
	if h.TotalPages, err = binary.ReadUvarint(r); err != nil {
		return Header{}, fmt.Errorf("trace: reading total pages: %w", err)
	}
	if h.WarmupTicks, err = binary.ReadUvarint(r); err != nil {
		return Header{}, fmt.Errorf("trace: reading warmup ticks: %w", err)
	}
	if h.Topology, err = readTopology(r); err != nil {
		return Header{}, err
	}
	if h.Faults, err = readFaults(r); err != nil {
		return Header{}, err
	}
	specLen, err := binary.ReadUvarint(r)
	if err != nil {
		return Header{}, fmt.Errorf("trace: reading tracker spec length: %w", err)
	}
	if specLen > 1<<12 {
		return Header{}, fmt.Errorf("trace: absurd tracker spec length %d", specLen)
	}
	spec := make([]byte, specLen)
	if _, err := io.ReadFull(r, spec); err != nil {
		return Header{}, fmt.Errorf("trace: reading tracker spec: %w", err)
	}
	h.Tracker = string(spec)
	return h, nil
}

// zigzag folds a signed delta into an unsigned varint-friendly value.
func zigzag(d int64) uint64 { return uint64((d << 1) ^ (d >> 63)) }

// unzigzag is the inverse of zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Writer streams a trace: the header is written on construction, events
// as they arrive. Errors are sticky; check Err or the Close result.
type Writer struct {
	bw      *bufio.Writer
	closers []io.Closer
	prev    pagetable.VPN
	events  uint64
	scratch []byte
	// deltaScratch backs TickEndDeltas' sparse event payload, reused
	// across ticks.
	deltaScratch []NodeCounterDelta
	closed       bool
	err          error
}

// NewWriter starts a trace on w with the given header. A header topology
// must be resolved (absolute Pages and an explicit Distance matrix, as
// produced by Topology.Spec); an unresolved spec is a sticky error
// rather than a block the reader would misparse.
func NewWriter(w io.Writer, h Header) *Writer {
	tw := &Writer{bw: bufio.NewWriterSize(w, 1<<16)}
	if err := checkTopology(h.Topology); err != nil {
		tw.err = err
		return tw
	}
	tw.write(encodeHeader(h))
	return tw
}

// checkTopology rejects header topologies the binary block cannot
// represent: ratio-share nodes and synthesized (nil) distance matrices.
// Resolve a spec through tier.Spec.Build + Topology.Spec before
// recording it.
func checkTopology(s *tier.Spec) error {
	if s == nil {
		return nil
	}
	for i, n := range s.Nodes {
		if n.Pages == 0 {
			return fmt.Errorf("trace: header topology node %d is unresolved (Share, not absolute Pages)", i)
		}
	}
	if len(s.Distance) != len(s.Nodes) {
		return fmt.Errorf("trace: header topology needs an explicit %dx%d distance matrix", len(s.Nodes), len(s.Nodes))
	}
	for i, row := range s.Distance {
		if len(row) != len(s.Nodes) {
			return fmt.Errorf("trace: header topology distance row %d has %d entries for %d nodes", i, len(row), len(s.Nodes))
		}
	}
	return nil
}

// Create opens path for writing and starts a trace on it. Paths ending
// in ".gz" are gzip-compressed.
func Create(path string, h Header) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	var w io.Writer = f
	closers := []io.Closer{f}
	if strings.HasSuffix(path, ".gz") {
		gz := gzip.NewWriter(f)
		w = gz
		closers = []io.Closer{gz, f}
	}
	tw := NewWriter(w, h)
	tw.closers = closers
	return tw, tw.err
}

func (w *Writer) write(p []byte) {
	if w.err == nil {
		_, w.err = w.bw.Write(p)
	}
}

func (w *Writer) writeByte(b byte) {
	if w.err == nil {
		w.err = w.bw.WriteByte(b)
	}
}

func (w *Writer) uvarint(v uint64) {
	w.scratch = binary.AppendUvarint(w.scratch[:0], v)
	w.write(w.scratch)
}

// WriteEvent appends one event to the stream.
func (w *Writer) WriteEvent(e Event) {
	w.writeByte(byte(e.Op))
	switch e.Op {
	case OpMmap:
		w.uvarint(uint64(e.Start))
		w.uvarint(e.Pages)
		w.writeByte(byte(e.Type))
		w.scratch = binary.LittleEndian.AppendUint64(w.scratch[:0], math.Float64bits(e.Dirty))
		w.write(w.scratch)
	case OpMunmap:
		w.uvarint(uint64(e.Start))
		w.uvarint(e.Pages)
		w.writeByte(byte(e.Type))
	case OpTouch, OpAccess:
		w.uvarint(zigzag(int64(e.VPN) - int64(w.prev)))
		w.prev = e.VPN
	case OpTickEnd:
		// Deltas must be grouped by ascending node with every Node in
		// [0, DeltaNodes); nodes beyond the last delta encode as empty.
		w.uvarint(uint64(e.DeltaNodes))
		i := 0
		for n := 0; n < e.DeltaNodes; n++ {
			start := i
			for i < len(e.Deltas) && e.Deltas[i].Node == n {
				i++
			}
			w.uvarint(uint64(i - start))
			for _, d := range e.Deltas[start:i] {
				w.writeByte(byte(d.Counter))
				w.uvarint(d.Delta)
			}
		}
		if i != len(e.Deltas) && w.err == nil {
			// Out-of-order or out-of-range entries would be silently
			// lost, breaking the sum(deltas)==final invariant — fail
			// loudly instead.
			w.err = fmt.Errorf("trace: tickend deltas not grouped by ascending node in [0,%d)", e.DeltaNodes)
		}
		if e.DeltaNodes > 0 {
			switch {
			case len(e.Levels) == e.DeltaNodes:
				w.writeByte(1)
				for _, lv := range e.Levels {
					w.uvarint(lv.Resident)
					w.uvarint(lv.Anon)
					w.uvarint(lv.File)
				}
			case len(e.Levels) == 0:
				w.writeByte(0)
			default:
				if w.err == nil {
					w.err = fmt.Errorf("trace: tickend has %d level entries for %d nodes", len(e.Levels), e.DeltaNodes)
				}
			}
		}
	case OpFault:
		w.writeByte(byte(e.Fault.Kind))
		w.uvarint(zigzag(int64(e.Fault.Node)))
		w.uvarint(e.Fault.Tick)
		w.scratch = binary.LittleEndian.AppendUint64(w.scratch[:0], math.Float64bits(e.Fault.Arg))
		w.write(w.scratch)
		w.uvarint(uint64(e.Fault.MaxRetries))
		w.uvarint(e.Fault.Pages)
	case OpStartEnd, OpEnd:
		// no operands
	default:
		if w.err == nil {
			w.err = fmt.Errorf("trace: writing invalid opcode %d", e.Op)
		}
	}
	w.events++
}

// Fault records one applied fault edge.
func (w *Writer) Fault(edge fault.Edge) { w.WriteEvent(Event{Op: OpFault, Fault: edge}) }

// Mmap records a region creation with its dirty-at-fault probability.
func (w *Writer) Mmap(r pagetable.Region, dirtyProb float64) {
	w.WriteEvent(Event{Op: OpMmap, Start: r.Start, Pages: r.Pages, Type: r.Type, Dirty: dirtyProb})
}

// Munmap records a region teardown.
func (w *Writer) Munmap(r pagetable.Region) {
	w.WriteEvent(Event{Op: OpMunmap, Start: r.Start, Pages: r.Pages, Type: r.Type})
}

// Touch records an explicit workload touch (housekeeping access).
func (w *Writer) Touch(v pagetable.VPN) { w.WriteEvent(Event{Op: OpTouch, VPN: v}) }

// Access records one access of the tick's drawn batch (NextAccessBatch).
func (w *Writer) Access(v pagetable.VPN) { w.WriteEvent(Event{Op: OpAccess, VPN: v}) }

// TickEnd closes the current tick with no per-node data.
func (w *Writer) TickEnd() { w.WriteEvent(Event{Op: OpTickEnd}) }

// TickEndDeltas closes the current tick, attaching each node's vmstat
// counter deltas for the tick and, when levels is non-nil (one entry
// per node), each node's residency at the tick's end. Only
// non-zero counters are encoded, so quiet ticks on small machines cost
// a few bytes. The snapshots are flattened into the sparse event form
// and encoded by WriteEvent — one encoder serves both freshly captured
// and re-encoded streams.
func (w *Writer) TickEndDeltas(deltas []vmstat.Snapshot, levels []series.Levels) {
	w.deltaScratch = w.deltaScratch[:0]
	for n, d := range deltas {
		for c, v := range d {
			if v != 0 {
				w.deltaScratch = append(w.deltaScratch,
					NodeCounterDelta{Node: n, Counter: vmstat.Counter(c), Delta: v})
			}
		}
	}
	w.WriteEvent(Event{Op: OpTickEnd, DeltaNodes: len(deltas), Deltas: w.deltaScratch, Levels: levels})
}

// StartEnd closes the Start (setup) section.
func (w *Writer) StartEnd() { w.WriteEvent(Event{Op: OpStartEnd}) }

// Events returns the number of events written so far.
func (w *Writer) Events() uint64 { return w.events }

// Err returns the first error encountered while writing.
func (w *Writer) Err() error { return w.err }

// Flush pushes buffered events to the underlying writer.
func (w *Writer) Flush() error {
	if err := w.bw.Flush(); err != nil && w.err == nil {
		w.err = err
	}
	return w.err
}

// Close writes the end-of-stream marker, flushes, and closes any
// underlying file opened by Create.
func (w *Writer) Close() error {
	if !w.closed {
		w.closed = true
		w.WriteEvent(Event{Op: OpEnd})
	}
	w.Flush()
	for _, c := range w.closers {
		if err := c.Close(); err != nil && w.err == nil {
			w.err = err
		}
	}
	w.closers = nil
	return w.err
}

// countingStream wraps a byteStream and counts consumed bytes, so
// decode errors can name the exact offset they tripped on.
type countingStream struct {
	s byteStream
	n int64
}

func (c *countingStream) Read(p []byte) (int, error) {
	n, err := c.s.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingStream) ReadByte() (byte, error) {
	b, err := c.s.ReadByte()
	if err == nil {
		c.n++
	}
	return b, err
}

// Reader streams events back out of a trace. Next returns io.EOF at a
// clean end of stream.
type Reader struct {
	br    *countingStream
	h     Header
	prev  pagetable.VPN
	ticks uint64 // TickEnds consumed, for error context
	// deltaScratch and levelScratch back TickEnd events' Deltas and
	// Levels slices, reused across Next calls.
	deltaScratch []NodeCounterDelta
	levelScratch []series.Levels
}

// NewReader parses the header and prepares to stream events. The reader
// does not decompress; wrap r in gzip.Reader first if needed (Load does
// this automatically).
func NewReader(r io.Reader) (*Reader, error) {
	bs, ok := r.(byteStream)
	if !ok {
		bs = bufio.NewReaderSize(r, 1<<16)
	}
	cs := &countingStream{s: bs}
	h, err := readHeader(cs)
	if err != nil {
		return nil, err
	}
	return &Reader{br: cs, h: h}, nil
}

// Header returns the trace header.
func (r *Reader) Header() Header { return r.h }

// Next decodes the next event. It returns io.EOF at the end of the
// stream; any other error means the trace is malformed and names the
// byte offset and tick it tripped on. Streams end with an explicit
// OpEnd marker, so running out of bytes without one is reported as
// truncation, not a clean end — including mid-event and mid-tick cuts.
func (r *Reader) Next() (Event, error) {
	e, err := r.next()
	switch {
	case err == nil:
		if e.Op == OpTickEnd {
			r.ticks++
		}
	case err != io.EOF:
		err = fmt.Errorf("%w (byte offset %d, tick %d)", err, r.br.n, r.ticks)
	}
	return e, err
}

func (r *Reader) next() (Event, error) {
	op, err := r.br.ReadByte()
	if err == io.EOF {
		return Event{}, fmt.Errorf("trace: stream truncated (no end marker)")
	}
	if err != nil {
		return Event{}, fmt.Errorf("trace: reading opcode: %w", err)
	}
	e := Event{Op: Op(op)}
	switch e.Op {
	case OpEnd:
		return Event{}, io.EOF
	case OpMmap, OpMunmap:
		start, err := binary.ReadUvarint(r.br)
		if err != nil {
			return Event{}, fmt.Errorf("trace: %s start: %w", e.Op, err)
		}
		pages, err := binary.ReadUvarint(r.br)
		if err != nil {
			return Event{}, fmt.Errorf("trace: %s pages: %w", e.Op, err)
		}
		t, err := r.br.ReadByte()
		if err != nil {
			return Event{}, fmt.Errorf("trace: %s type: %w", e.Op, err)
		}
		if int(t) >= mem.NumPageTypes {
			return Event{}, fmt.Errorf("trace: %s bad page type %d", e.Op, t)
		}
		e.Start, e.Pages, e.Type = pagetable.VPN(start), pages, mem.PageType(t)
		if e.Op == OpMmap {
			var f [8]byte
			if _, err := io.ReadFull(r.br, f[:]); err != nil {
				return Event{}, fmt.Errorf("trace: mmap dirty prob: %w", err)
			}
			e.Dirty = math.Float64frombits(binary.LittleEndian.Uint64(f[:]))
		}
	case OpTouch, OpAccess:
		u, err := binary.ReadUvarint(r.br)
		if err != nil {
			return Event{}, fmt.Errorf("trace: %s delta: %w", e.Op, err)
		}
		e.VPN = pagetable.VPN(int64(r.prev) + unzigzag(u))
		r.prev = e.VPN
	case OpTickEnd:
		nodes, err := binary.ReadUvarint(r.br)
		if err != nil {
			return Event{}, fmt.Errorf("trace: tickend node count: %w", err)
		}
		if nodes > 127 {
			return Event{}, fmt.Errorf("trace: tickend bad node count %d", nodes)
		}
		e.DeltaNodes = int(nodes)
		r.deltaScratch = r.deltaScratch[:0]
		for n := 0; n < int(nodes); n++ {
			pairs, err := binary.ReadUvarint(r.br)
			if err != nil {
				return Event{}, fmt.Errorf("trace: tickend node %d pair count: %w", n, err)
			}
			if pairs > uint64(vmstat.NumCounters) {
				return Event{}, fmt.Errorf("trace: tickend node %d has %d counter deltas", n, pairs)
			}
			for k := uint64(0); k < pairs; k++ {
				cb, err := r.br.ReadByte()
				if err != nil {
					return Event{}, fmt.Errorf("trace: tickend delta counter: %w", err)
				}
				if int(cb) >= vmstat.NumCounters {
					return Event{}, fmt.Errorf("trace: tickend unknown counter %d", cb)
				}
				v, err := binary.ReadUvarint(r.br)
				if err != nil {
					return Event{}, fmt.Errorf("trace: tickend delta value: %w", err)
				}
				r.deltaScratch = append(r.deltaScratch,
					NodeCounterDelta{Node: n, Counter: vmstat.Counter(cb), Delta: v})
			}
		}
		e.Deltas = r.deltaScratch
		if nodes > 0 {
			present, err := r.br.ReadByte()
			if err != nil {
				return Event{}, fmt.Errorf("trace: tickend level marker: %w", err)
			}
			if present > 1 {
				return Event{}, fmt.Errorf("trace: tickend bad level marker %d", present)
			}
			if present == 1 {
				r.levelScratch = r.levelScratch[:0]
				for n := 0; n < int(nodes); n++ {
					var lv series.Levels
					var lerr error
					if lv.Resident, lerr = binary.ReadUvarint(r.br); lerr == nil {
						if lv.Anon, lerr = binary.ReadUvarint(r.br); lerr == nil {
							lv.File, lerr = binary.ReadUvarint(r.br)
						}
					}
					if lerr != nil {
						return Event{}, fmt.Errorf("trace: tickend node %d levels: %w", n, lerr)
					}
					r.levelScratch = append(r.levelScratch, lv)
				}
				e.Levels = r.levelScratch
			}
		}
	case OpFault:
		kind, err := r.br.ReadByte()
		if err != nil {
			return Event{}, fmt.Errorf("trace: fault kind: %w", err)
		}
		e.Fault.Kind = fault.Kind(kind)
		node, err := binary.ReadUvarint(r.br)
		if err != nil {
			return Event{}, fmt.Errorf("trace: fault node: %w", err)
		}
		e.Fault.Node = int(unzigzag(node))
		if e.Fault.Node < -1 || e.Fault.Node > 127 {
			return Event{}, fmt.Errorf("trace: fault event has bad node %d", e.Fault.Node)
		}
		if e.Fault.Tick, err = binary.ReadUvarint(r.br); err != nil {
			return Event{}, fmt.Errorf("trace: fault tick: %w", err)
		}
		var f [8]byte
		if _, err := io.ReadFull(r.br, f[:]); err != nil {
			return Event{}, fmt.Errorf("trace: fault arg: %w", err)
		}
		e.Fault.Arg = math.Float64frombits(binary.LittleEndian.Uint64(f[:]))
		retries, err := binary.ReadUvarint(r.br)
		if err != nil {
			return Event{}, fmt.Errorf("trace: fault retries: %w", err)
		}
		if retries > 1<<20 {
			return Event{}, fmt.Errorf("trace: fault event has absurd retry bound %d", retries)
		}
		e.Fault.MaxRetries = int(retries)
		if e.Fault.Pages, err = binary.ReadUvarint(r.br); err != nil {
			return Event{}, fmt.Errorf("trace: fault pages: %w", err)
		}
	case OpStartEnd:
		// no operands
	default:
		return Event{}, fmt.Errorf("trace: unknown opcode %d", op)
	}
	return e, nil
}

// Trace is a fully loaded trace: the header plus the encoded event
// stream held in memory. It is the unit the CLI and catalog pass around;
// Replayer views are cheap cursors over the shared encoded bytes.
type Trace struct {
	Header Header
	data   []byte
	ticks  uint64 // lazily counted by Ticks
}

// Decode parses an uncompressed trace image.
func Decode(raw []byte) (*Trace, error) {
	br := bytes.NewReader(raw)
	h, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	return &Trace{Header: h, data: raw[len(raw)-br.Len():]}, nil
}

// Load reads a trace file, transparently gunzipping if the content is
// gzip-compressed (sniffed by magic, not extension).
func Load(path string) (*Trace, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		gz, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("trace: %s: %w", path, err)
		}
		if raw, err = io.ReadAll(gz); err != nil {
			return nil, fmt.Errorf("trace: %s: %w", path, err)
		}
		if err := gz.Close(); err != nil {
			return nil, fmt.Errorf("trace: %s: %w", path, err)
		}
	}
	tr, err := Decode(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tr, nil
}

// Save writes the trace to path, gzip-compressed when the path ends in
// ".gz".
func (t *Trace) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	var w io.Writer = f
	var gz *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		gz = gzip.NewWriter(f)
		w = gz
	}
	_, err = w.Write(encodeHeader(t.Header))
	if err == nil {
		_, err = w.Write(t.data)
	}
	if gz != nil {
		if cerr := gz.Close(); err == nil {
			err = cerr
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace: %s: %w", path, err)
	}
	return nil
}

// Events returns a fresh streaming cursor over the trace's events.
// Byte offsets in its errors count from the start of the event stream
// (the header is not part of a cursor's view).
func (t *Trace) Events() *Reader {
	return &Reader{br: &countingStream{s: bytes.NewReader(t.data)}, h: t.Header}
}

// Size returns the encoded event-stream size in bytes.
func (t *Trace) Size() int { return len(t.data) }

// Ticks returns the number of recorded ticks (TickEnd events), scanning
// the stream once and caching the result. Callers use it to size replay
// runs: a machine that outlasts a non-looping trace idles for the
// remainder and dilutes its scalars.
func (t *Trace) Ticks() uint64 {
	if t.ticks == 0 && len(t.data) > 0 {
		r := t.Events()
		for {
			e, err := r.Next()
			if err != nil {
				break
			}
			if e.Op == OpTickEnd {
				t.ticks++
			}
		}
	}
	return t.ticks
}
