// Package fault is the deterministic fault-injection plane. A Schedule
// is a tick-indexed, seedable list of failure events — node
// offline/online (CXL hotplug / link-down), latency-degradation
// windows, transient migration failures with bounded retry+backoff,
// and capacity loss — that the simulator applies at exact ticks. The
// plane owns its own RNG streams (seeded from Schedule.Seed, never the
// machine's), so an empty schedule leaves a run bit-identical to a
// machine built without the plane, and a fixed seed plus a fixed
// schedule reproduces identical faulted runs, including through trace
// record/replay.
//
// The package deliberately knows nothing about the sim package: it
// exposes the schedule model (Schedule/Event/Edge), the migration
// retry/backoff hook (Retrier, which implements migrate.FaultHook
// structurally), the per-tick InvariantChecker, and the Occurrence log
// entries that surface in metrics.Run.FaultLog. Applying edges to a
// live machine — evacuation, watermark rebuilds, latency-matrix
// refresh — is the simulator's job.
package fault

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"tppsim/internal/mem"
	"tppsim/internal/tier"
	"tppsim/internal/xrand"
)

// Kind identifies a fault event class.
type Kind uint8

const (
	// NodeOffline takes a CXL node out of the machine: resident pages
	// are emergency-evacuated along the (health-filtered) cascade and
	// the node is excluded from allocation, demotion, and promotion
	// until its paired NodeOnline edge (Event.Until), if any.
	NodeOffline Kind = iota
	// NodeOnline returns an offline node to service. Emitted as the
	// closing edge of a NodeOffline window.
	NodeOnline
	// LatencyDegrade multiplies a node's access latency by
	// Mult*(1±Jitter) for the window [At, Until). Policies treat the
	// node as degraded: promotions into it back off.
	LatencyDegrade
	// LatencyRestore closes a LatencyDegrade window.
	LatencyRestore
	// MigFailBegin opens a machine-wide window in which every
	// migration attempt fails with probability Prob, with per-page
	// exponential backoff and at most MaxRetries re-attempts.
	MigFailBegin
	// MigFailEnd closes a MigFailBegin window.
	MigFailEnd
	// CapacityLoss shrinks a node by Pages pages at tick At; overage
	// is evacuated and the node's watermarks are rebuilt.
	CapacityLoss

	numKinds
)

// String names the kind as it appears in specs and fault timelines.
func (k Kind) String() string {
	switch k {
	case NodeOffline:
		return "offline"
	case NodeOnline:
		return "online"
	case LatencyDegrade:
		return "latency"
	case LatencyRestore:
		return "latency-restore"
	case MigFailBegin:
		return "migfail"
	case MigFailEnd:
		return "migfail-end"
	case CapacityLoss:
		return "shrink"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one scheduled fault. Only the fields relevant to its Kind
// are meaningful; user-facing schedules use the window kinds
// (NodeOffline, LatencyDegrade, MigFailBegin, CapacityLoss) — the
// closing kinds are produced by Compile.
type Event struct {
	Kind Kind
	// Node is the target node. -1 for machine-wide events (MigFail).
	Node int
	// At is the tick the fault begins.
	At uint64
	// Until is the tick the fault ends (exclusive). 0 means the fault
	// holds for the rest of the run (offline/latency/migfail).
	Until uint64
	// Mult is the latency multiplier (LatencyDegrade; > 1).
	Mult float64
	// Jitter spreads the effective multiplier uniformly over
	// Mult*(1±Jitter), resolved deterministically from Schedule.Seed.
	Jitter float64
	// Prob is the per-attempt migration failure probability (MigFail).
	Prob float64
	// MaxRetries bounds re-attempts per page before the page is
	// dropped from migration (MigFail; default 3 when 0).
	MaxRetries int
	// Pages is the capacity removed (CapacityLoss).
	Pages uint64
}

// Schedule is a composable, seedable fault plan. The zero value is the
// empty schedule: no faults, no plane, bit-identical runs.
type Schedule struct {
	// Seed drives every fault-plane random draw (jitter resolution,
	// migration-failure rolls). Independent of the machine seed.
	Seed uint64
	// Events in any order; Compile sorts them into tick order.
	Events []Event
}

// Empty reports whether the schedule injects nothing.
func (s Schedule) Empty() bool { return len(s.Events) == 0 }

// Validate checks the schedule against a built topology. Offline
// events are restricted to CXL nodes: node 0 (and any KindLocal node)
// anchors CPU placement and the promotion top tier, so hot-removing it
// is not a scenario the machine models. Range checks are written so a
// NaN fails them, and the latency multiplier must be finite.
func (s Schedule) Validate(topo *tier.Topology) error {
	for i, e := range s.Events {
		switch e.Kind {
		case NodeOffline, LatencyDegrade, CapacityLoss:
		case MigFailBegin:
			if !(e.Prob > 0 && e.Prob <= 1) {
				return fmt.Errorf("fault: event %d: migfail prob %g outside (0, 1]", i, e.Prob)
			}
			if e.MaxRetries < 0 {
				return fmt.Errorf("fault: event %d: migfail retries %d is negative", i, e.MaxRetries)
			}
			continue // machine-wide: no node checks
		default:
			return fmt.Errorf("fault: event %d: kind %s is not schedulable (closing edges are derived)", i, e.Kind)
		}
		if e.Node < 0 || e.Node >= topo.NumNodes() {
			return fmt.Errorf("fault: event %d: node %d outside topology (%d nodes)", i, e.Node, topo.NumNodes())
		}
		if e.Until != 0 && e.Until <= e.At {
			return fmt.Errorf("fault: event %d: window [%d, %d) is empty", i, e.At, e.Until)
		}
		switch e.Kind {
		case NodeOffline:
			if topo.Node(mem.NodeID(e.Node)).Kind != mem.KindCXL {
				return fmt.Errorf("fault: event %d: node %d is not a CXL node; only CXL devices can go offline", i, e.Node)
			}
		case LatencyDegrade:
			if !(e.Mult > 1) || math.IsInf(e.Mult, 1) {
				return fmt.Errorf("fault: event %d: latency multiplier %g must be finite and exceed 1", i, e.Mult)
			}
			if !(e.Jitter >= 0 && e.Jitter < 1) {
				return fmt.Errorf("fault: event %d: jitter %g outside [0, 1)", i, e.Jitter)
			}
		case CapacityLoss:
			if e.Pages == 0 {
				return fmt.Errorf("fault: event %d: capacity loss of 0 pages", i)
			}
		}
	}
	return nil
}

// Edge is one applied transition: a window event expands to a begin
// edge and (when bounded) an end edge. Edges are what the simulator
// applies at tick boundaries and what trace v6 records.
type Edge struct {
	Tick uint64
	Kind Kind
	Node int
	// Arg carries the kind's scalar: effective latency multiplier
	// (jitter already resolved) or migration failure probability.
	Arg        float64
	MaxRetries int
	Pages      uint64
}

// Compile expands the schedule into a tick-sorted edge list. Jitter is
// resolved here from Schedule.Seed, so the same schedule always
// compiles to the same edges — on a live run and again on replay.
func (s Schedule) Compile() []Edge {
	if s.Empty() {
		return nil
	}
	rng := xrand.New(s.Seed ^ 0xfa171)
	edges := make([]Edge, 0, 2*len(s.Events))
	for _, e := range s.Events {
		switch e.Kind {
		case NodeOffline:
			edges = append(edges, Edge{Tick: e.At, Kind: NodeOffline, Node: e.Node})
			if e.Until != 0 {
				edges = append(edges, Edge{Tick: e.Until, Kind: NodeOnline, Node: e.Node})
			}
		case LatencyDegrade:
			eff := e.Mult
			if e.Jitter > 0 {
				eff *= 1 + e.Jitter*(2*rng.Float64()-1)
			}
			edges = append(edges, Edge{Tick: e.At, Kind: LatencyDegrade, Node: e.Node, Arg: eff})
			if e.Until != 0 {
				edges = append(edges, Edge{Tick: e.Until, Kind: LatencyRestore, Node: e.Node, Arg: 1})
			}
		case MigFailBegin:
			retries := e.MaxRetries
			if retries == 0 {
				retries = 3
			}
			edges = append(edges, Edge{Tick: e.At, Kind: MigFailBegin, Node: -1, Arg: e.Prob, MaxRetries: retries})
			if e.Until != 0 {
				edges = append(edges, Edge{Tick: e.Until, Kind: MigFailEnd, Node: -1})
			}
		case CapacityLoss:
			edges = append(edges, Edge{Tick: e.At, Kind: CapacityLoss, Node: e.Node, Pages: e.Pages})
		}
	}
	sort.SliceStable(edges, func(i, j int) bool { return edges[i].Tick < edges[j].Tick })
	return edges
}

// ParseSpec parses the -faults command-line syntax: semicolon-separated
// clauses, each "kind:key=value,key=value" (or the bare "seed=N"):
//
//	offline:node=2,at=100[,until=200]
//	latency:node=1,at=50,until=150,mult=2.0[,jitter=0.1]
//	migfail:prob=0.2,at=100[,until=200][,retries=3]
//	shrink:node=1,at=300,pages=1024
//	seed=42
//
// Schedule.Spec renders the canonical form back; ParseSpec(s.Spec())
// round-trips.
func ParseSpec(spec string) (Schedule, error) {
	var s Schedule
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if v, ok := strings.CutPrefix(clause, "seed="); ok {
			seed, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return Schedule{}, fmt.Errorf("fault: bad seed %q", v)
			}
			s.Seed = seed
			continue
		}
		name, rest, ok := strings.Cut(clause, ":")
		if !ok {
			return Schedule{}, fmt.Errorf("fault: clause %q has no kind (want kind:k=v,...)", clause)
		}
		var e Event
		switch name {
		case "offline":
			e.Kind = NodeOffline
		case "latency":
			e.Kind = LatencyDegrade
		case "migfail":
			e.Kind = MigFailBegin
			e.Node = -1
		case "shrink":
			e.Kind = CapacityLoss
		default:
			return Schedule{}, fmt.Errorf("fault: unknown clause kind %q (want offline/latency/migfail/shrink)", name)
		}
		for _, kv := range strings.Split(rest, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return Schedule{}, fmt.Errorf("fault: clause %q: %q is not key=value", clause, kv)
			}
			var err error
			switch k {
			case "node":
				e.Node, err = strconv.Atoi(v)
			case "at", "from":
				e.At, err = strconv.ParseUint(v, 10, 64)
			case "until":
				e.Until, err = strconv.ParseUint(v, 10, 64)
			case "mult":
				e.Mult, err = strconv.ParseFloat(v, 64)
			case "jitter":
				e.Jitter, err = strconv.ParseFloat(v, 64)
			case "prob":
				e.Prob, err = strconv.ParseFloat(v, 64)
			case "retries":
				e.MaxRetries, err = strconv.Atoi(v)
			case "pages":
				e.Pages, err = strconv.ParseUint(v, 10, 64)
			default:
				return Schedule{}, fmt.Errorf("fault: clause %q: unknown key %q", clause, k)
			}
			if err != nil {
				return Schedule{}, fmt.Errorf("fault: clause %q: bad value for %s: %v", clause, k, err)
			}
		}
		s.Events = append(s.Events, e)
	}
	return s, nil
}

// Spec renders the schedule in the canonical ParseSpec syntax.
func (s Schedule) Spec() string {
	var parts []string
	if s.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", s.Seed))
	}
	for _, e := range s.Events {
		var b strings.Builder
		switch e.Kind {
		case NodeOffline:
			fmt.Fprintf(&b, "offline:node=%d,at=%d", e.Node, e.At)
		case LatencyDegrade:
			fmt.Fprintf(&b, "latency:node=%d,at=%d", e.Node, e.At)
		case MigFailBegin:
			fmt.Fprintf(&b, "migfail:prob=%g,at=%d", e.Prob, e.At)
		case CapacityLoss:
			fmt.Fprintf(&b, "shrink:node=%d,at=%d,pages=%d", e.Node, e.At, e.Pages)
		default:
			continue
		}
		if e.Until != 0 {
			fmt.Fprintf(&b, ",until=%d", e.Until)
		}
		if e.Kind == LatencyDegrade {
			fmt.Fprintf(&b, ",mult=%g", e.Mult)
			if e.Jitter != 0 {
				fmt.Fprintf(&b, ",jitter=%g", e.Jitter)
			}
		}
		if e.Kind == MigFailBegin && e.MaxRetries != 0 {
			fmt.Fprintf(&b, ",retries=%d", e.MaxRetries)
		}
		parts = append(parts, b.String())
	}
	return strings.Join(parts, ";")
}

// Occurrence is one applied fault edge, as surfaced in
// metrics.Run.FaultLog and report.FaultTimeline.
type Occurrence struct {
	Tick uint64
	Kind Kind
	// Node is -1 for machine-wide events.
	Node int
	// Detail is a human-readable summary of what the machine did
	// ("evacuated 812 pages (37 evicted)", "latency x2.13", ...).
	Detail string
}

// String renders the occurrence as one timeline line.
func (o Occurrence) String() string {
	where := "machine"
	if o.Node >= 0 {
		where = fmt.Sprintf("node %d", o.Node)
	}
	if o.Detail == "" {
		return fmt.Sprintf("tick %d: %s %s", o.Tick, where, o.Kind)
	}
	return fmt.Sprintf("tick %d: %s %s — %s", o.Tick, where, o.Kind, o.Detail)
}
