// Package tier describes the memory topology of a tiered machine: which
// nodes exist, their performance traits (load latency, link bandwidth),
// the inter-node distance matrix, and the demotion-target selection rule
// (§5.1 of the paper: "the demotion target is chosen based on the node
// distances from the CPU").
//
// The latency constants default to the paper's published figures (Fig. 2,
// Fig. 5): ~100 ns local DRAM, ~170–250 ns CXL-Memory, ~180 ns remote
// socket on a dual-socket system.
package tier

import (
	"fmt"
	"math"
	"sort"

	"tppsim/internal/mem"
)

// Traits are the performance characteristics of one memory node.
type Traits struct {
	// LoadLatency is the average loaded CPU-to-memory read latency in
	// nanoseconds.
	LoadLatency float64
	// BandwidthMBps is the node's sustainable migration/link bandwidth in
	// MB/s (38,400 for a DDR5 channel, 64,000 for a CXL x16 link; Fig. 5).
	BandwidthMBps float64
	// HasCPU reports whether the node has CPU cores attached. CXL-Memory
	// appears to the OS as a CPU-less NUMA node.
	HasCPU bool
}

// Standard latency/bandwidth constants from the paper (Figs. 2 and 5).
const (
	LocalDRAMLatencyNs  = 100.0
	RemoteSocketLatency = 180.0
	CXLLatencyDefaultNs = 220.0 // middle of the 170–250 ns band
	CXLLatencyMinNs     = 170.0
	CXLLatencyMaxNs     = 250.0

	DDRChannelBandwidthMBps  = 38400.0
	CXLx16BandwidthMBps      = 64000.0
	CrossSocketBandwidthMBps = 32000.0
)

// Topology is the set of nodes plus their distance matrix and traits.
// Nodes are ranked into tiers by their distance from the CPU (the minimum
// distance to any CPU-attached node): tier 0 is the CPU tier, higher
// tiers are progressively farther. Demotion cascades down the tiers and
// promotion climbs back up, one hop at a time.
type Topology struct {
	nodes    []*mem.Node
	traits   []Traits
	distance [][]int

	// Construction metadata, kept so Spec() can serialize the machine
	// (trace headers record it for exact replay).
	name      string
	demoteSF  float64
	hugePages bool

	// Derived tier structure, computed once at assembly.
	tiers         []int
	numTiers      int
	cpuDist       []int // distance[node][nearest CPU], the tiering metric
	toNodeDist    []int // min over CPUs c of distance[c][node], the access metric
	demoteTargets [][]mem.NodeID

	// Per-node allocation zonelists over the online nodes, rebuilt on
	// every health transition (buildZonelists).
	fallback [][]mem.NodeID
	cxlFirst [][]mem.NodeID

	// Fault-plane health state. All three stay nil until a fault first
	// touches the machine, so healthy topologies pay only nil/zero
	// checks and remain bit-identical to machines built before the
	// plane existed.
	offline       []bool
	nOffline      int
	healthyDemote [][]mem.NodeID // demoteTargets minus offline nodes, rebuilt on transitions
	latScale      []float64      // per-node access-latency multiplier (1 = healthy)
}

// New assembles a topology. distance must be square with len(nodes) rows;
// distance[i][i] must be the minimum of row i.
func New(nodes []*mem.Node, traits []Traits, distance [][]int) (*Topology, error) {
	if len(nodes) != len(traits) || len(nodes) != len(distance) {
		return nil, fmt.Errorf("tier: mismatched sizes: %d nodes, %d traits, %d distance rows",
			len(nodes), len(traits), len(distance))
	}
	for i, row := range distance {
		if len(row) != len(nodes) {
			return nil, fmt.Errorf("tier: distance row %d has %d entries", i, len(row))
		}
		for j, d := range row {
			if i != j && d <= row[i] {
				return nil, fmt.Errorf("tier: distance[%d][%d]=%d not greater than self-distance %d", i, j, d, row[i])
			}
		}
	}
	for i, n := range nodes {
		if n.ID != mem.NodeID(i) {
			return nil, fmt.Errorf("tier: node %d has ID %d; IDs must be dense", i, n.ID)
		}
		if traits[i].HasCPU != (n.Kind == mem.KindLocal) {
			return nil, fmt.Errorf("tier: node %d kind/CPU mismatch", i)
		}
	}
	t := &Topology{nodes: nodes, traits: traits, distance: distance}
	t.computeTiers()
	t.buildZonelists()
	return t, nil
}

// computeTiers derives the tier structure: every node's distance to the
// nearest CPU node, dense tier ranks over the distinct distances, and the
// per-node demotion cascade (all strictly-farther nodes, nearest first).
func (t *Topology) computeTiers() {
	n := len(t.nodes)
	cpuDist := make([]int, n)
	locals := t.LocalNodes()
	for i := range t.nodes {
		if len(locals) == 0 {
			// Degenerate CPU-less machine: everything is one tier.
			cpuDist[i] = t.distance[i][i]
			continue
		}
		best := int(^uint(0) >> 1)
		for _, l := range locals {
			if d := t.distance[i][l]; d < best {
				best = d
			}
		}
		cpuDist[i] = best
	}
	t.cpuDist = cpuDist
	// The access-direction twin of cpuDist: the smallest CPU->node
	// distance, read in the same row orientation AccessLatency uses.
	// On symmetric matrices the two are equal; on asymmetric ones the
	// penalty for an access must be measured against the access
	// direction or a lone CPU would pay a spurious penalty to its own
	// nodes.
	t.toNodeDist = make([]int, n)
	for i := range t.nodes {
		if len(locals) == 0 {
			t.toNodeDist[i] = t.distance[i][i]
			continue
		}
		best := int(^uint(0) >> 1)
		for _, l := range locals {
			if d := t.distance[l][i]; d < best {
				best = d
			}
		}
		t.toNodeDist[i] = best
	}
	// Dense ranks over the sorted distinct CPU distances.
	distinct := append([]int(nil), cpuDist...)
	sort.Ints(distinct)
	rank := map[int]int{}
	for _, d := range distinct {
		if _, ok := rank[d]; !ok {
			rank[d] = len(rank)
		}
	}
	t.tiers = make([]int, n)
	for i, d := range cpuDist {
		t.tiers[i] = rank[d]
	}
	t.numTiers = len(rank)
	// Demotion cascade: for each node, every node in a strictly farther
	// tier, ordered by distance from the source (ties by ID).
	t.demoteTargets = make([][]mem.NodeID, n)
	for i := range t.nodes {
		var targets []mem.NodeID
		for j := range t.nodes {
			if t.tiers[j] > t.tiers[i] {
				targets = append(targets, mem.NodeID(j))
			}
		}
		sort.SliceStable(targets, func(a, b int) bool {
			return t.distance[i][targets[a]] < t.distance[i][targets[b]]
		})
		t.demoteTargets[i] = targets
	}
}

// NumNodes returns the node count.
func (t *Topology) NumNodes() int { return len(t.nodes) }

// Node returns the node with the given ID.
func (t *Topology) Node(id mem.NodeID) *mem.Node { return t.nodes[id] }

// Nodes returns the node list (shared, not a copy).
func (t *Topology) Nodes() []*mem.Node { return t.nodes }

// Traits returns the traits of the given node.
func (t *Topology) Traits(id mem.NodeID) Traits { return t.traits[id] }

// SetLatency overrides the load latency of a node; used by the Fig. 16
// CXL-latency sweep.
func (t *Topology) SetLatency(id mem.NodeID, ns float64) { t.traits[id].LoadLatency = ns }

// Distance returns the NUMA distance between two nodes.
func (t *Topology) Distance(a, b mem.NodeID) int { return t.distance[a][b] }

// RemoteAccessPenaltyNsPerDist converts extra NUMA distance — beyond a
// node's distance to its nearest CPU socket — into added load latency
// for accesses issued by a farther CPU. Calibrated on the dual-socket
// preset: the cross-socket hop there is 22 distance units (32 vs the 10
// self-distance), and a remote-socket DRAM access should cost the
// paper's ~180 ns against ~100 ns locally (Fig. 5).
const RemoteAccessPenaltyNsPerDist = (RemoteSocketLatency - LocalDRAMLatencyNs) / 22.0

// AccessLatency returns the load latency a CPU on node cpu observes
// when accessing memory resident on node n. A node's trait latency is
// what its *nearest* CPU socket pays; a CPU farther away (a
// cross-socket DRAM or remote-expander hit on the dual-socket machine)
// additionally pays RemoteAccessPenaltyNsPerDist per unit of extra
// distance. Both distances are measured in the CPU->node direction, so
// on machines with one CPU node every access comes from the nearest
// socket and this is exactly Traits(n).LoadLatency — including on
// asymmetric distance matrices.
func (t *Topology) AccessLatency(cpu, n mem.NodeID) float64 {
	lat := t.traits[n].LoadLatency
	if extra := t.distance[cpu][n] - t.toNodeDist[n]; extra > 0 {
		lat += float64(extra) * RemoteAccessPenaltyNsPerDist
	}
	if t.latScale != nil {
		lat *= t.latScale[n]
	}
	return lat
}

// Online reports whether the node is in service. Nodes are online
// unless the fault plane took them offline.
func (t *Topology) Online(id mem.NodeID) bool {
	return t.nOffline == 0 || !t.offline[id]
}

// AllOnline reports whether every node is in service.
func (t *Topology) AllOnline() bool { return t.nOffline == 0 }

// SetOffline transitions a node out of (or back into) service and
// rebuilds the health-filtered demotion cascades. The caller (the
// fault plane) is responsible for evacuating resident pages first.
func (t *Topology) SetOffline(id mem.NodeID, off bool) {
	if t.offline == nil {
		if !off {
			return
		}
		t.offline = make([]bool, len(t.nodes))
	}
	if t.offline[id] == off {
		return
	}
	t.offline[id] = off
	if off {
		t.nOffline++
	} else {
		t.nOffline--
	}
	t.buildZonelists()
	if t.nOffline == 0 {
		t.healthyDemote = nil
		return
	}
	t.healthyDemote = make([][]mem.NodeID, len(t.nodes))
	for i, full := range t.demoteTargets {
		kept := make([]mem.NodeID, 0, len(full))
		for _, target := range full {
			if !t.offline[target] {
				kept = append(kept, target)
			}
		}
		t.healthyDemote[i] = kept
	}
}

// SetLatencyScale sets a node's fault-plane latency multiplier; 1 (or
// any value <= 0) restores health. Scaled latency is visible to
// AccessLatency; Traits and SetLatency stay unscaled.
func (t *Topology) SetLatencyScale(id mem.NodeID, scale float64) {
	if scale <= 0 {
		scale = 1
	}
	if t.latScale == nil {
		if scale == 1 {
			return
		}
		t.latScale = make([]float64, len(t.nodes))
		for i := range t.latScale {
			t.latScale[i] = 1
		}
	}
	t.latScale[id] = scale
}

// LatencyScale returns the node's fault-plane latency multiplier.
func (t *Topology) LatencyScale(id mem.NodeID) float64 {
	if t.latScale == nil {
		return 1
	}
	return t.latScale[id]
}

// Degraded reports whether the node is inside a latency-degradation
// window. Promotion paths back off from degraded targets.
func (t *Topology) Degraded(id mem.NodeID) bool {
	return t.latScale != nil && t.latScale[id] > 1
}

// LocalNodes returns the IDs of CPU-attached nodes in ID order.
func (t *Topology) LocalNodes() []mem.NodeID {
	var out []mem.NodeID
	for i, n := range t.nodes {
		if n.Kind == mem.KindLocal {
			out = append(out, mem.NodeID(i))
		}
	}
	return out
}

// CXLNodes returns the IDs of CPU-less CXL nodes in ID order.
func (t *Topology) CXLNodes() []mem.NodeID {
	var out []mem.NodeID
	for i, n := range t.nodes {
		if n.Kind == mem.KindCXL {
			out = append(out, mem.NodeID(i))
		}
	}
	return out
}

// TierOf returns the node's tier rank: 0 for the CPU tier, increasing
// with distance from the CPU.
func (t *Topology) TierOf(id mem.NodeID) int { return t.tiers[id] }

// NumTiers returns the number of distinct tiers.
func (t *Topology) NumTiers() int { return t.numTiers }

// DemotionTargets returns the node's demotion cascade: every node in a
// strictly farther tier, nearest (by distance from the node) first — the
// §5.1 rule ("the demotion target is chosen based on the node distances
// from the CPU") generalized to N tiers. Empty for bottom-tier nodes.
// Offline nodes are filtered out, so reclaim reroutes around them.
// The slice is shared; callers must not mutate it.
func (t *Topology) DemotionTargets(from mem.NodeID) []mem.NodeID {
	if t.nOffline != 0 {
		return t.healthyDemote[from]
	}
	return t.demoteTargets[from]
}

// DemotionTarget returns the first node of the demotion cascade — the
// nearest node one or more tiers down. Returns mem.NilNode for
// bottom-tier nodes (and on the all-local baseline).
func (t *Topology) DemotionTarget(from mem.NodeID) mem.NodeID {
	if ts := t.DemotionTargets(from); len(ts) > 0 {
		return ts[0]
	}
	return mem.NilNode
}

// PromotionTarget returns the local node with the most free pages — §5.3:
// "when applications share multiple memory nodes, we choose the local node
// with the lowest memory pressure". Returns mem.NilNode when there is no
// local node.
func (t *Topology) PromotionTarget() mem.NodeID {
	best := mem.NilNode
	var bestFree uint64
	for _, id := range t.LocalNodes() {
		if !t.Online(id) {
			continue
		}
		if f := t.nodes[id].Free(); best == mem.NilNode || f > bestFree {
			best, bestFree = id, f
		}
	}
	return best
}

// PromotionTargetFrom returns where a hot page on the given node should
// promote to: the least-pressured node in the tier immediately above
// (toward the CPU). Multi-hop machines climb one tier per promotion, so a
// page trapped on the far expander reaches local DRAM via the near tier.
// Returns mem.NilNode for CPU-tier nodes (nothing above them).
func (t *Topology) PromotionTargetFrom(from mem.NodeID) mem.NodeID {
	tier := t.tiers[from]
	if tier == 0 {
		return mem.NilNode
	}
	return t.bestOfTier(tier - 1)
}

// PromotionTargetToward is PromotionTargetFrom with socket affinity: when
// the page's home CPU node sits in the tier immediately above and has
// free pages, the promotion lands there — the threads that fault on the
// page run on that socket, so anywhere else leaves it paying the
// cross-socket penalty on every access. Otherwise (home out of reach, or
// full) it falls back to the least-pressured node of the tier above,
// §5.3's rule. On single-socket machines the home node is the only node
// of the CPU tier, so the choice is identical to PromotionTargetFrom.
func (t *Topology) PromotionTargetToward(home, from mem.NodeID) mem.NodeID {
	tier := t.tiers[from]
	if tier == 0 {
		return mem.NilNode
	}
	if home != mem.NilNode && home != from && int(home) < len(t.tiers) &&
		t.tiers[home] == tier-1 && t.Online(home) && t.nodes[home].Free() > 0 {
		return home
	}
	return t.bestOfTier(tier - 1)
}

// bestOfTier returns the node of the given tier with the most free
// pages, or mem.NilNode when the tier is empty.
func (t *Topology) bestOfTier(tier int) mem.NodeID {
	best := mem.NilNode
	var bestFree uint64
	for i, n := range t.nodes {
		if t.tiers[i] != tier || !t.Online(mem.NodeID(i)) {
			continue
		}
		if f := n.Free(); best == mem.NilNode || f > bestFree {
			best, bestFree = mem.NodeID(i), f
		}
	}
	return best
}

// FallbackOrder returns all online node IDs ordered by distance from
// the given node (self first) — the allocator's zonelist. Offline
// nodes are excluded, so allocation reroutes around them. The slice is
// precomputed and shared; callers must not mutate it.
func (t *Topology) FallbackOrder(from mem.NodeID) []mem.NodeID { return t.fallback[from] }

// CXLFirstOrder is FallbackOrder with the CXL nodes moved to the front,
// each group keeping its distance order: the page-type-aware zonelist
// (§5.4) that places file-like pages on CXL first. Equal to
// FallbackOrder when no CXL node is online. Shared and read-only, like
// FallbackOrder.
func (t *Topology) CXLFirstOrder(from mem.NodeID) []mem.NodeID { return t.cxlFirst[from] }

// buildZonelists recomputes every node's FallbackOrder and
// CXLFirstOrder from the distance matrix and the online set. It
// allocates fresh slices, so an order a caller is still ranging over
// across a health transition stays intact.
func (t *Topology) buildZonelists() {
	n := len(t.nodes)
	t.fallback = make([][]mem.NodeID, n)
	t.cxlFirst = make([][]mem.NodeID, n)
	for from := range t.nodes {
		out := make([]mem.NodeID, 0, n)
		for i := range t.nodes {
			if t.nOffline != 0 && t.offline[i] {
				continue
			}
			out = append(out, mem.NodeID(i))
		}
		// Insertion sort by distance; node counts are tiny.
		for i := 1; i < len(out); i++ {
			for j := i; j > 0 && t.distance[from][out[j]] < t.distance[from][out[j-1]]; j-- {
				out[j], out[j-1] = out[j-1], out[j]
			}
		}
		cxl := make([]mem.NodeID, 0, len(out))
		for _, id := range out {
			if t.nodes[id].Kind == mem.KindCXL {
				cxl = append(cxl, id)
			}
		}
		for _, id := range out {
			if t.nodes[id].Kind != mem.KindCXL {
				cxl = append(cxl, id)
			}
		}
		t.fallback[from] = out
		t.cxlFirst[from] = cxl
	}
}

// DemoteScaleFactor returns the machine's demote_scale_factor —
// recorded at build time, or the 0.02 default for hand-assembled
// topologies. The fault plane uses it to rebuild watermarks after
// capacity loss.
func (t *Topology) DemoteScaleFactor() float64 {
	if t.demoteSF == 0 {
		return 0.02
	}
	return t.demoteSF
}

// HugePages reports whether the machine is backed by 2 MB huge pages
// (Spec.HugePages at build time).
func (t *Topology) HugePages() bool { return t.hugePages }

// TotalCapacity returns the machine's total memory in pages.
func (t *Topology) TotalCapacity() uint64 {
	var s uint64
	for _, n := range t.nodes {
		s += n.Capacity
	}
	return s
}

// Spec returns a declarative description of the assembled machine:
// absolute per-node capacities, traits, and the distance matrix.
// Building the returned spec reproduces this topology exactly (for
// machines assembled via Spec.Build or NewCXLSystem, which record their
// demote scale factor; hand-assembled topologies serialize with the
// default factor). Trace headers record it so replays can rebuild the
// recorded machine.
func (t *Topology) Spec() Spec {
	s := Spec{
		Name:              t.name,
		DemoteScaleFactor: t.demoteSF,
		HugePages:         t.hugePages,
		Distance:          make([][]int, len(t.distance)),
	}
	for i, row := range t.distance {
		s.Distance[i] = append([]int(nil), row...)
	}
	for i, n := range t.nodes {
		s.Nodes = append(s.Nodes, NodeSpec{
			Kind:          n.Kind,
			Pages:         n.Capacity,
			LoadLatencyNs: t.traits[i].LoadLatency,
			BandwidthMBps: t.traits[i].BandwidthMBps,
		})
	}
	return s
}

// NodeSpec declares one memory node of a Spec.
type NodeSpec struct {
	// Kind selects CPU-attached DRAM or CPU-less CXL memory.
	Kind mem.NodeKind
	// Pages is the node's absolute capacity in 4 KB pages. Exactly one of
	// Pages and Share must be non-zero.
	Pages uint64
	// Share sizes the node proportionally at Build time: nodes with
	// shares split the working set (grown by the slack headroom, minus
	// any absolute-Pages nodes) in share proportion — the N-node
	// generalization of the legacy local:CXL Ratio.
	Share uint64
	// LoadLatencyNs overrides the kind's default load latency
	// (local DRAM 100 ns, CXL 220 ns); 0 keeps the default.
	LoadLatencyNs float64
	// BandwidthMBps overrides the kind's default link bandwidth; 0
	// keeps the default.
	BandwidthMBps float64
}

// Spec declares a machine topology: N nodes with per-node capacity
// (absolute pages or working-set ratio shares), kind, performance traits,
// and a distance matrix. Build resolves it into a Topology. The zero
// Distance synthesizes a flat matrix (10 on the diagonal, 20 elsewhere),
// which makes every CXL node one hop from every CPU node; multi-hop
// machines (see PresetExpander) supply an explicit matrix.
type Spec struct {
	// Name labels the topology ("cxl", "dualsocket", "expander", ...).
	Name string
	// Nodes lists the machine's memory nodes; node IDs are their indexes.
	Nodes []NodeSpec
	// Distance is the NUMA distance matrix: square, len(Nodes) rows,
	// every row's minimum on the diagonal. nil synthesizes a flat matrix.
	Distance [][]int
	// DemoteScaleFactor is the /proc/sys/vm/demote_scale_factor analogue
	// (0 means the 2% default).
	DemoteScaleFactor float64
	// HugePages backs the machine with 2 MB huge pages: the simulator
	// allocates, translates, migrates, and ages aligned 512-page frames
	// as single units over an extent-compressed page table, which is
	// what makes terabyte-scale machines simulable in bounded memory.
	// Node capacities stay in base pages. Not serialized into trace
	// headers (huge-page runs model scale, not byte-exact replay).
	HugePages bool
}

// Validate checks the spec's structural invariants: at least one node,
// at least one CPU node, exactly one of Pages/Share per node, a
// representable node count, finite non-negative scale factor, latencies
// and bandwidths (zero meaning the default), and a well-shaped distance
// matrix (deeper distance-value checks happen in New at Build time).
func (s Spec) Validate() error {
	if len(s.Nodes) == 0 {
		return fmt.Errorf("tier: spec %q has no nodes", s.Name)
	}
	if len(s.Nodes) > 127 {
		return fmt.Errorf("tier: spec %q has %d nodes; node IDs are int8", s.Name, len(s.Nodes))
	}
	if !finiteNonNeg(s.DemoteScaleFactor) {
		return fmt.Errorf("tier: spec %q demote scale factor %v is not a finite non-negative number", s.Name, s.DemoteScaleFactor)
	}
	for i, n := range s.Nodes {
		if (n.Pages == 0) == (n.Share == 0) {
			return fmt.Errorf("tier: spec %q node %d: exactly one of Pages and Share must be set", s.Name, i)
		}
		if !finiteNonNeg(n.LoadLatencyNs) {
			return fmt.Errorf("tier: spec %q node %d load latency %v ns is not a finite non-negative number", s.Name, i, n.LoadLatencyNs)
		}
		if !finiteNonNeg(n.BandwidthMBps) {
			return fmt.Errorf("tier: spec %q node %d bandwidth %v MB/s is not a finite non-negative number", s.Name, i, n.BandwidthMBps)
		}
	}
	// Node 0 is the CPU node by convention (mem.NodeID's doc); the
	// simulator anchors its baseline latency and preferred allocation
	// node there, so a spec leading with a CPU-less node would run
	// without error and quietly produce inverted placement.
	if s.Nodes[0].Kind != mem.KindLocal {
		return fmt.Errorf("tier: spec %q node 0 must be CPU-attached (KindLocal)", s.Name)
	}
	if s.Distance != nil && len(s.Distance) != len(s.Nodes) {
		return fmt.Errorf("tier: spec %q distance matrix has %d rows for %d nodes", s.Name, len(s.Distance), len(s.Nodes))
	}
	return nil
}

// finiteNonNeg reports whether x is a finite number >= 0 (NaN is not).
func finiteNonNeg(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// Build resolves the spec into a Topology. workingSetPages sizes the
// ratio-share nodes (the workload's TotalPages); slack is the capacity
// headroom over the working set (the same knob as sim.Config.Slack).
// Specs whose nodes all use absolute Pages ignore both.
func (s Spec) Build(workingSetPages uint64, slack float64) (*Topology, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	sf := s.DemoteScaleFactor
	if sf == 0 {
		sf = 0.02
	}
	var shareSum, absSum uint64
	for _, n := range s.Nodes {
		shareSum += n.Share
		absSum += n.Pages
	}
	pages := make([]uint64, len(s.Nodes))
	if shareSum > 0 {
		if workingSetPages == 0 {
			return nil, fmt.Errorf("tier: spec %q has ratio-share nodes but no working-set size", s.Name)
		}
		total := uint64(float64(workingSetPages) * (1 + slack))
		if total <= absSum {
			return nil, fmt.Errorf("tier: spec %q absolute nodes (%d pages) consume the whole working set (%d)", s.Name, absSum, total)
		}
		// Cumulative split so the shares sum exactly to the budget; the
		// two-node {2,1} case reproduces the legacy RatioPages arithmetic
		// bit for bit.
		budget := total - absSum
		var given, shareSeen uint64
		for i, n := range s.Nodes {
			if n.Share == 0 {
				pages[i] = n.Pages
				continue
			}
			shareSeen += n.Share
			want := budget * shareSeen / shareSum
			pages[i] = want - given
			given = want
		}
	} else {
		for i, n := range s.Nodes {
			pages[i] = n.Pages
		}
	}
	nodes := make([]*mem.Node, len(s.Nodes))
	traits := make([]Traits, len(s.Nodes))
	for i, n := range s.Nodes {
		if pages[i] == 0 {
			return nil, fmt.Errorf("tier: spec %q node %d resolves to zero pages", s.Name, i)
		}
		nodes[i] = mem.NewNode(mem.NodeID(i), n.Kind, pages[i], sf)
		tr := Traits{LoadLatency: LocalDRAMLatencyNs, BandwidthMBps: DDRChannelBandwidthMBps, HasCPU: true}
		if n.Kind == mem.KindCXL {
			tr = Traits{LoadLatency: CXLLatencyDefaultNs, BandwidthMBps: CXLx16BandwidthMBps, HasCPU: false}
		}
		if n.LoadLatencyNs > 0 {
			tr.LoadLatency = n.LoadLatencyNs
		}
		if n.BandwidthMBps > 0 {
			tr.BandwidthMBps = n.BandwidthMBps
		}
		traits[i] = tr
	}
	dist := s.Distance
	if dist == nil {
		dist = make([][]int, len(s.Nodes))
		for i := range dist {
			dist[i] = make([]int, len(s.Nodes))
			for j := range dist[i] {
				if i == j {
					dist[i][j] = 10
				} else {
					dist[i][j] = 20
				}
			}
		}
	}
	topo, err := New(nodes, traits, dist)
	if err != nil {
		return nil, err
	}
	topo.name = s.Name
	topo.demoteSF = sf
	topo.hugePages = s.HugePages
	return topo, nil
}

// Preset names, in presentation order.
const (
	PresetNameCXL        = "cxl"
	PresetNameDualSocket = "dualsocket"
	PresetNameExpander   = "expander"
)

// PresetNames lists the named topology presets.
func PresetNames() []string {
	return []string{PresetNameCXL, PresetNameDualSocket, PresetNameExpander}
}

// Preset returns the named preset with its default shares: the paper's
// 2-node CXL box at 2:1, the dual-socket system, or the 2:1:1 multi-hop
// expander.
func Preset(name string) (Spec, bool) {
	switch name {
	case PresetNameCXL:
		return PresetCXL(2, 1), true
	case PresetNameDualSocket:
		return PresetDualSocket(), true
	case PresetNameExpander:
		return PresetExpander(2, 1, 1), true
	}
	return Spec{}, false
}

// PresetCXL is the paper's target machine as a spec: one CPU-attached
// local node and one CPU-less CXL node sized localShare:cxlShare over the
// working set. cxlShare == 0 yields the single-node all-local baseline.
// Building it is equivalent to the legacy Ratio sugar.
func PresetCXL(localShare, cxlShare uint64) Spec {
	s := Spec{
		Name:  PresetNameCXL,
		Nodes: []NodeSpec{{Kind: mem.KindLocal, Share: localShare}},
	}
	if cxlShare > 0 {
		s.Nodes = append(s.Nodes, NodeSpec{Kind: mem.KindCXL, Share: cxlShare})
	}
	return s
}

// PresetDualSocket is the §7 multi-socket system: two CPU sockets, each
// with its own DRAM and its own CXL expander. Demotion from either socket
// prefers its near expander and falls back to the remote socket's; both
// sockets are promotion targets.
func PresetDualSocket() Spec {
	return Spec{
		Name: PresetNameDualSocket,
		Nodes: []NodeSpec{
			{Kind: mem.KindLocal, Share: 2},
			{Kind: mem.KindLocal, Share: 2},
			{Kind: mem.KindCXL, Share: 1},
			{Kind: mem.KindCXL, Share: 1, BandwidthMBps: CrossSocketBandwidthMBps},
		},
		// Socket-local CXL is one hop (20); the remote socket is a QPI hop
		// (32); the remote socket's CXL device stacks both (42).
		Distance: [][]int{
			{10, 32, 20, 42},
			{32, 10, 42, 20},
			{20, 42, 10, 52},
			{42, 20, 52, 10},
		},
	}
}

// FarCXLLatencyNs is the default load latency of the far node of the
// multi-hop expander: a switched/daisy-chained CXL device behind the
// near expander (§7 discusses such multi-device topologies).
const FarCXLLatencyNs = 350.0

// PresetExpander is the 3-tier multi-hop machine: local DRAM, a near CXL
// expander, and a far (switched) CXL expander behind it. Reclaim cascades
// local → near → far; promotion climbs far → near → local one hop per
// hint fault.
func PresetExpander(localShare, nearShare, farShare uint64) Spec {
	return Spec{
		Name: PresetNameExpander,
		Nodes: []NodeSpec{
			{Kind: mem.KindLocal, Share: localShare},
			{Kind: mem.KindCXL, Share: nearShare},
			{Kind: mem.KindCXL, Share: farShare,
				LoadLatencyNs: FarCXLLatencyNs, BandwidthMBps: CrossSocketBandwidthMBps},
		},
		Distance: [][]int{
			{10, 20, 40},
			{20, 10, 30},
			{40, 30, 10},
		},
	}
}

// Config describes a machine to build with the standard constructors.
type Config struct {
	// LocalPages and CXLPages size the two tiers. CXLPages == 0 builds the
	// all-local baseline machine.
	LocalPages uint64
	CXLPages   uint64
	// CXLLatencyNs overrides the CXL load latency (0 means the 220 ns
	// default).
	CXLLatencyNs float64
	// DemoteScaleFactor is the /proc/sys/vm/demote_scale_factor analogue
	// (0 means the 2% default).
	DemoteScaleFactor float64
}

// NewCXLSystem builds the paper's target machine: one CPU-attached local
// node (node 0) and one CPU-less CXL node (node 1), with distances
// mirroring a local/remote NUMA pair. With cfg.CXLPages == 0 it builds the
// single-node baseline ("all memory in the local tier"). It is the
// absolute-pages form of PresetCXL; both are sugar over Spec.Build.
func NewCXLSystem(cfg Config) (*Topology, error) {
	if cfg.LocalPages == 0 {
		return nil, fmt.Errorf("tier: LocalPages must be positive")
	}
	spec := Spec{
		Name:              PresetNameCXL,
		DemoteScaleFactor: cfg.DemoteScaleFactor,
		Nodes:             []NodeSpec{{Kind: mem.KindLocal, Pages: cfg.LocalPages}},
	}
	if cfg.CXLPages > 0 {
		spec.Nodes = append(spec.Nodes, NodeSpec{
			Kind: mem.KindCXL, Pages: cfg.CXLPages, LoadLatencyNs: cfg.CXLLatencyNs,
		})
	}
	return spec.Build(0, 0)
}

// RatioPages splits a total working-set size into (local, cxl) capacities
// for a local:cxl ratio such as 2:1 or 1:4, with a small slack factor so
// the machine has the paper's "enough memory to support the workload".
func RatioPages(totalWorkingSet uint64, localShare, cxlShare uint64, slack float64) (local, cxl uint64) {
	total := uint64(float64(totalWorkingSet) * (1 + slack))
	local = total * localShare / (localShare + cxlShare)
	cxl = total - local
	return local, cxl
}
