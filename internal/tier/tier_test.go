package tier

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"tppsim/internal/mem"
)

// cxlSpec is the paper's 2-node box in absolute pages: a local node and,
// when cxl > 0, a CXL node.
func cxlSpec(local, cxl uint64) Spec {
	s := Spec{Name: PresetNameCXL, Nodes: []NodeSpec{{Kind: mem.KindLocal, Pages: local}}}
	if cxl > 0 {
		s.Nodes = append(s.Nodes, NodeSpec{Kind: mem.KindCXL, Pages: cxl})
	}
	return s
}

func mustCXL(t *testing.T, local, cxl uint64) *Topology {
	t.Helper()
	topo, err := cxlSpec(local, cxl).Build(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestCXLMachine(t *testing.T) {
	topo := mustCXL(t, 1000, 500)
	if topo.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d", topo.NumNodes())
	}
	if topo.Node(0).Kind != mem.KindLocal || topo.Node(1).Kind != mem.KindCXL {
		t.Fatal("node kinds wrong")
	}
	if !topo.Traits(0).HasCPU || topo.Traits(1).HasCPU {
		t.Fatal("CPU traits wrong")
	}
	if topo.Traits(1).LoadLatency != CXLLatencyDefaultNs {
		t.Fatalf("default CXL latency = %v", topo.Traits(1).LoadLatency)
	}
	if topo.TotalCapacity() != 1500 {
		t.Fatalf("TotalCapacity = %d", topo.TotalCapacity())
	}
}

func TestBaselineSingleNode(t *testing.T) {
	topo := mustCXL(t, 1000, 0)
	if topo.NumNodes() != 1 {
		t.Fatalf("baseline NumNodes = %d", topo.NumNodes())
	}
	if topo.DemotionTarget(0) != mem.NilNode {
		t.Fatal("baseline has a demotion target")
	}
	if len(topo.CXLNodes()) != 0 || len(topo.LocalNodes()) != 1 {
		t.Fatal("node kind lists wrong")
	}
}

func TestLatencyOverride(t *testing.T) {
	spec := cxlSpec(10, 10)
	spec.Nodes[1].LoadLatencyNs = 300
	topo, err := spec.Build(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Traits(1).LoadLatency != 300 {
		t.Fatal("LoadLatencyNs ignored")
	}
}

func TestDemotionAndPromotionTargets(t *testing.T) {
	topo := mustCXL(t, 100, 50)
	if got := topo.DemotionTarget(0); got != 1 {
		t.Fatalf("DemotionTarget = %d", got)
	}
	if got := topo.PromotionTarget(); got != 0 {
		t.Fatalf("PromotionTarget = %d", got)
	}
}

func TestPromotionTargetPicksLowestPressure(t *testing.T) {
	// Hand-build a 3-node machine: two local, one CXL.
	n0 := mem.NewNode(0, mem.KindLocal, 100, 0.02)
	n1 := mem.NewNode(1, mem.KindLocal, 100, 0.02)
	n2 := mem.NewNode(2, mem.KindCXL, 100, 0.02)
	topo, err := New(
		[]*mem.Node{n0, n1, n2},
		[]Traits{
			{LoadLatency: 100, BandwidthMBps: 38400, HasCPU: true},
			{LoadLatency: 180, BandwidthMBps: 32000, HasCPU: true},
			{LoadLatency: 220, BandwidthMBps: 64000, HasCPU: false},
		},
		[][]int{{10, 21, 20}, {21, 10, 25}, {20, 25, 10}},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Fill node0 more than node1.
	for i := 0; i < 90; i++ {
		n0.Acquire(mem.Anon)
	}
	for i := 0; i < 10; i++ {
		n1.Acquire(mem.Anon)
	}
	if got := topo.PromotionTarget(); got != 1 {
		t.Fatalf("PromotionTarget = %d, want 1 (less pressure)", got)
	}
	// Demotion from node1 picks nearest CXL node (node2 is the only one).
	if got := topo.DemotionTarget(1); got != 2 {
		t.Fatalf("DemotionTarget(1) = %d", got)
	}
}

func TestFallbackOrder(t *testing.T) {
	topo := mustCXL(t, 10, 10)
	order := topo.FallbackOrder(0)
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("FallbackOrder(0) = %v", order)
	}
	order = topo.FallbackOrder(1)
	if order[0] != 1 || order[1] != 0 {
		t.Fatalf("FallbackOrder(1) = %v", order)
	}
}

// TestZonelistsTrackHealth checks the precomputed zonelists against
// orders computed from scratch across offline and rejoin transitions,
// and that an order handed out before a transition is left untouched.
func TestZonelistsTrackHealth(t *testing.T) {
	topo, err := PresetDualSocket().Build(1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	fresh := func(from mem.NodeID) (fallback, cxlFirst []mem.NodeID) {
		for i := 0; i < topo.NumNodes(); i++ {
			if topo.Online(mem.NodeID(i)) {
				fallback = append(fallback, mem.NodeID(i))
			}
		}
		sort.SliceStable(fallback, func(a, b int) bool {
			return topo.Distance(from, fallback[a]) < topo.Distance(from, fallback[b])
		})
		for _, cxl := range []bool{true, false} {
			for _, id := range fallback {
				if (topo.Node(id).Kind == mem.KindCXL) == cxl {
					cxlFirst = append(cxlFirst, id)
				}
			}
		}
		return fallback, cxlFirst
	}
	check := func(stage string) {
		t.Helper()
		for i := 0; i < topo.NumNodes(); i++ {
			from := mem.NodeID(i)
			wantF, wantC := fresh(from)
			if got := topo.FallbackOrder(from); !reflect.DeepEqual(got, wantF) {
				t.Fatalf("%s: FallbackOrder(%d) = %v, want %v", stage, from, got, wantF)
			}
			if got := topo.CXLFirstOrder(from); !reflect.DeepEqual(got, wantC) {
				t.Fatalf("%s: CXLFirstOrder(%d) = %v, want %v", stage, from, got, wantC)
			}
		}
	}
	check("healthy")
	held := topo.FallbackOrder(0)
	heldCopy := append([]mem.NodeID(nil), held...)
	topo.SetOffline(2, true)
	check("node 2 offline")
	topo.SetOffline(3, true)
	check("nodes 2,3 offline")
	topo.SetOffline(2, false)
	check("node 2 rejoined")
	topo.SetOffline(3, false)
	check("all rejoined")
	if !reflect.DeepEqual(held, heldCopy) {
		t.Fatalf("order held across transitions changed: %v, was %v", held, heldCopy)
	}
}

func TestNewValidation(t *testing.T) {
	n0 := mem.NewNode(0, mem.KindLocal, 10, 0.02)
	tr := []Traits{{LoadLatency: 100, HasCPU: true}}
	if _, err := New([]*mem.Node{n0}, tr, [][]int{{10, 20}}); err == nil {
		t.Fatal("bad distance row accepted")
	}
	if _, err := New([]*mem.Node{n0}, nil, [][]int{{10}}); err == nil {
		t.Fatal("mismatched traits accepted")
	}
	// Self-distance must be row minimum.
	n1 := mem.NewNode(1, mem.KindCXL, 10, 0.02)
	tr2 := []Traits{{LoadLatency: 100, HasCPU: true}, {LoadLatency: 220, HasCPU: false}}
	if _, err := New([]*mem.Node{n0, n1}, tr2, [][]int{{10, 5}, {20, 10}}); err == nil {
		t.Fatal("distance below self-distance accepted")
	}
	// Kind/CPU mismatch.
	bad := []Traits{{LoadLatency: 100, HasCPU: false}, {LoadLatency: 220, HasCPU: false}}
	if _, err := New([]*mem.Node{n0, n1}, bad, [][]int{{10, 20}, {20, 10}}); err == nil {
		t.Fatal("kind/CPU mismatch accepted")
	}
}

func TestZeroLocalRejected(t *testing.T) {
	if _, err := cxlSpec(0, 10).Build(0, 0); err == nil {
		t.Fatal("zero local pages accepted")
	}
	if _, err := PresetCXL(1, 4).Build(4, 0); err == nil {
		t.Fatal("a working set too small for one local page accepted")
	}
}

func TestSpecValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		ws   uint64
	}{
		{"no nodes", Spec{Name: "empty"}, 0},
		{"no CPU node", Spec{Name: "cpuless", Nodes: []NodeSpec{{Kind: mem.KindCXL, Pages: 10}}}, 0},
		{"CXL node first", Spec{Name: "inverted", Nodes: []NodeSpec{
			{Kind: mem.KindCXL, Pages: 10}, {Kind: mem.KindLocal, Pages: 10}}}, 0},
		{"pages and share both set", Spec{Name: "both", Nodes: []NodeSpec{
			{Kind: mem.KindLocal, Pages: 10, Share: 1}}}, 100},
		{"pages and share both zero", Spec{Name: "neither", Nodes: []NodeSpec{
			{Kind: mem.KindLocal}}}, 100},
		{"shares without working set", Spec{Name: "nows", Nodes: []NodeSpec{
			{Kind: mem.KindLocal, Share: 1}}}, 0},
		{"distance rows mismatched", Spec{Name: "baddist",
			Nodes:    []NodeSpec{{Kind: mem.KindLocal, Pages: 10}},
			Distance: [][]int{{10, 20}, {20, 10}}}, 0},
		{"distance below self-distance", Spec{Name: "badmin",
			Nodes: []NodeSpec{
				{Kind: mem.KindLocal, Pages: 10}, {Kind: mem.KindCXL, Pages: 10}},
			Distance: [][]int{{10, 5}, {20, 10}}}, 0},
		{"share rounds to zero pages", Spec{Name: "tiny", Nodes: []NodeSpec{
			{Kind: mem.KindLocal, Share: 1}, {Kind: mem.KindCXL, Share: 100000}}}, 10},
	}
	for _, c := range cases {
		if _, err := c.spec.Build(c.ws, 0); err == nil {
			t.Errorf("%s: Build accepted invalid spec", c.name)
		}
	}
}

// TestSpecRejectsNonFiniteValues: a NaN, infinite or negative scale
// factor, latency or bandwidth fails Validate and Build with an error
// instead of building a machine with absurd watermarks or latencies.
func TestSpecRejectsNonFiniteValues(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		for _, field := range []string{"DemoteScaleFactor", "LoadLatencyNs", "BandwidthMBps"} {
			spec := PresetCXL(2, 1)
			switch field {
			case "DemoteScaleFactor":
				spec.DemoteScaleFactor = bad
			case "LoadLatencyNs":
				spec.Nodes[1].LoadLatencyNs = bad
			case "BandwidthMBps":
				spec.Nodes[1].BandwidthMBps = bad
			}
			if err := spec.Validate(); err == nil {
				t.Errorf("%s = %v: Validate accepted it", field, bad)
			}
			if _, err := spec.Build(4096, 0); err == nil {
				t.Errorf("%s = %v: Build accepted it", field, bad)
			}
		}
	}
}

// ratioSplit is the plain local:CXL ratio arithmetic that PresetCXL's
// share split, which sizes Table 1's machines, must reproduce:
// total = floor(ws*(1+slack)), local = total*l/(l+c), cxl = total-local.
func ratioSplit(ws, l, c uint64, slack float64) (local, cxl uint64) {
	total := uint64(float64(ws) * (1 + slack))
	local = total * l / (l + c)
	return local, total - local
}

// TestRatioPages checks the ratio arithmetic, and PresetCXL's machines,
// on hand-computed splits.
func TestRatioPages(t *testing.T) {
	for _, c := range []struct {
		ws, l, c   uint64
		slack      float64
		local, cxl uint64
	}{
		{3000, 2, 1, 0, 2000, 1000},
		{5000, 1, 4, 0, 1000, 4000},
		{1000, 1, 1, 0.1, 550, 550}, // slack grows the total
	} {
		if local, cxl := ratioSplit(c.ws, c.l, c.c, c.slack); local != c.local || cxl != c.cxl {
			t.Fatalf("ratioSplit %d:%d of %d (slack %v) = %d:%d, want %d:%d", c.l, c.c, c.ws, c.slack, local, cxl, c.local, c.cxl)
		}
		topo, err := PresetCXL(c.l, c.c).Build(c.ws, c.slack)
		if err != nil {
			t.Fatal(err)
		}
		if local, cxl := topo.Node(0).Capacity, topo.Node(1).Capacity; local != c.local || cxl != c.cxl {
			t.Errorf("PresetCXL(%d, %d) of %d (slack %v) = %d:%d, want %d:%d", c.l, c.c, c.ws, c.slack, local, cxl, c.local, c.cxl)
		}
	}
}

func TestSpecShareSplitMatchesRatioPages(t *testing.T) {
	// The default machine's sizing is pinned by the seed-determinism
	// golden test.
	for _, c := range [][2]uint64{{2, 1}, {1, 4}, {3, 2}} {
		wantLocal, wantCXL := ratioSplit(16*1024, c[0], c[1], 0.08)
		topo, err := PresetCXL(c[0], c[1]).Build(16*1024, 0.08)
		if err != nil {
			t.Fatal(err)
		}
		if got := topo.Node(0).Capacity; got != wantLocal {
			t.Errorf("%d:%d local = %d, want %d", c[0], c[1], got, wantLocal)
		}
		if got := topo.Node(1).Capacity; got != wantCXL {
			t.Errorf("%d:%d cxl = %d, want %d", c[0], c[1], got, wantCXL)
		}
	}
}

// TestPresetCXLMatchesRatioSizing pins PresetCXL's share split to
// ratioSplit over a grid of ratios, slacks and working sets, with one
// node when c == 0. Every machine on the grid must match it node for
// node, and Build must fail exactly where that local node is empty.
func TestPresetCXLMatchesRatioSizing(t *testing.T) {
	built := 0
	for _, r := range [][2]uint64{{2, 1}, {1, 4}, {1, 0}, {1, 1}, {4, 1}, {3, 7}} {
		for _, slack := range []float64{0, 0.08, 0.1, 0.25} {
			for ws := uint64(1); ws <= 200_000; ws += ws/4 + 1 {
				local, cxl := ratioSplit(ws, r[0], r[1], slack)
				topo, err := PresetCXL(r[0], r[1]).Build(ws, slack)
				if local == 0 {
					if err == nil {
						t.Errorf("%d:%d ws=%d slack=%v: built a machine with no local pages", r[0], r[1], ws, slack)
					}
					continue
				}
				if err != nil {
					t.Errorf("%d:%d ws=%d slack=%v: %v", r[0], r[1], ws, slack, err)
					continue
				}
				built++
				want := []uint64{local}
				if r[1] > 0 {
					want = append(want, cxl)
				}
				var got []uint64
				for _, n := range topo.Nodes() {
					got = append(got, n.Capacity)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%d:%d ws=%d slack=%v: node pages %v, want %v", r[0], r[1], ws, slack, got, want)
				}
			}
		}
	}
	if built < 500 {
		t.Fatalf("only %d machines built; the grid is thinner than intended", built)
	}
}

func TestExpanderCascade(t *testing.T) {
	topo, err := PresetExpander(2, 1, 1).Build(8*1024, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumTiers() != 3 {
		t.Fatalf("NumTiers = %d, want 3", topo.NumTiers())
	}
	for id, want := range []int{0, 1, 2} {
		if got := topo.TierOf(mem.NodeID(id)); got != want {
			t.Errorf("TierOf(%d) = %d, want %d", id, got, want)
		}
	}
	// Demotion cascades: local → [near, far]; near → [far]; far → [].
	if got := topo.DemotionTargets(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("DemotionTargets(0) = %v, want [1 2]", got)
	}
	if got := topo.DemotionTargets(1); len(got) != 1 || got[0] != 2 {
		t.Errorf("DemotionTargets(1) = %v, want [2]", got)
	}
	if got := topo.DemotionTargets(2); len(got) != 0 {
		t.Errorf("DemotionTargets(2) = %v, want empty", got)
	}
	// Promotion climbs one hop: far → near, near → local, local → nil.
	if got := topo.PromotionTargetFrom(2); got != 1 {
		t.Errorf("PromotionTargetFrom(2) = %d, want 1", got)
	}
	if got := topo.PromotionTargetFrom(1); got != 0 {
		t.Errorf("PromotionTargetFrom(1) = %d, want 0", got)
	}
	if got := topo.PromotionTargetFrom(0); got != mem.NilNode {
		t.Errorf("PromotionTargetFrom(0) = %d, want nil", got)
	}
	if topo.Traits(2).LoadLatency != FarCXLLatencyNs {
		t.Errorf("far latency = %v", topo.Traits(2).LoadLatency)
	}
}

func TestDualSocketCascadeOrdering(t *testing.T) {
	topo, err := PresetDualSocket().Build(8*1024, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumTiers() != 2 {
		t.Fatalf("NumTiers = %d, want 2", topo.NumTiers())
	}
	// Each socket demotes to its own expander first, the remote one second.
	if got := topo.DemotionTargets(0); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("DemotionTargets(0) = %v, want [2 3]", got)
	}
	if got := topo.DemotionTargets(1); len(got) != 2 || got[0] != 3 || got[1] != 2 {
		t.Errorf("DemotionTargets(1) = %v, want [3 2]", got)
	}
	// Promotion from either expander picks the least-pressured socket.
	for i := 0; i < 30; i++ {
		topo.Node(0).Acquire(mem.Anon)
	}
	if got := topo.PromotionTargetFrom(2); got != 1 {
		t.Errorf("PromotionTargetFrom(2) = %d, want 1 (less pressure)", got)
	}
}

func TestPromotionTargetToward(t *testing.T) {
	topo, err := PresetDualSocket().Build(8*1024, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	// Pressure socket 1 so the least-pressured fallback would be socket 0.
	for i := 0; i < 30; i++ {
		topo.Node(1).Acquire(mem.Anon)
	}
	if got := topo.PromotionTargetFrom(3); got != 0 {
		t.Fatalf("fixture: PromotionTargetFrom(3) = %d, want 0 (least pressure)", got)
	}
	// Home-socket affinity overrides least-pressure: a page whose
	// threads run on socket 1 promotes there.
	if got := topo.PromotionTargetToward(1, 3); got != 1 {
		t.Errorf("PromotionTargetToward(1, 3) = %d, want home socket 1", got)
	}
	// A full home falls back to the least-pressured node of the tier.
	for topo.Node(1).Free() > 0 {
		topo.Node(1).Acquire(mem.Anon)
	}
	if got := topo.PromotionTargetToward(1, 3); got != 0 {
		t.Errorf("PromotionTargetToward(1, 3) with socket 1 full = %d, want fallback 0", got)
	}
	// CPU-tier pages have nowhere to go, as before.
	if got := topo.PromotionTargetToward(0, 0); got != mem.NilNode {
		t.Errorf("PromotionTargetToward(0, 0) = %d, want nil", got)
	}

	// Single-socket machines: identical to PromotionTargetFrom, full or
	// not — the home node is the only node of the CPU tier.
	single, err := PresetCXL(2, 1).Build(8*1024, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := single.PromotionTargetToward(0, 1), single.PromotionTargetFrom(1); got != want {
		t.Errorf("single-socket PromotionTargetToward(0,1) = %d, want %d", got, want)
	}
	for single.Node(0).Free() > 0 {
		single.Node(0).Acquire(mem.Anon)
	}
	if got, want := single.PromotionTargetToward(0, 1), single.PromotionTargetFrom(1); got != want {
		t.Errorf("single-socket (full) PromotionTargetToward(0,1) = %d, want %d", got, want)
	}

	// Multi-hop climbs: a far-tier page's home CPU node is two tiers up,
	// so the one-hop rule is unchanged.
	exp, err := PresetExpander(2, 1, 1).Build(8*1024, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := exp.PromotionTargetToward(0, 2), exp.PromotionTargetFrom(2); got != want {
		t.Errorf("expander PromotionTargetToward(0,2) = %d, want %d", got, want)
	}
}

func TestSpecRoundTrip(t *testing.T) {
	topo, err := PresetExpander(2, 1, 1).Build(8*1024, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	spec := topo.Spec()
	if spec.Name != PresetNameExpander {
		t.Errorf("round-trip name = %q", spec.Name)
	}
	rebuilt, err := spec.Build(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.NumNodes() != topo.NumNodes() {
		t.Fatalf("round-trip nodes = %d", rebuilt.NumNodes())
	}
	for i := 0; i < topo.NumNodes(); i++ {
		id := mem.NodeID(i)
		if rebuilt.Node(id).Capacity != topo.Node(id).Capacity ||
			rebuilt.Node(id).Kind != topo.Node(id).Kind ||
			rebuilt.Node(id).WM != topo.Node(id).WM ||
			rebuilt.Traits(id) != topo.Traits(id) ||
			rebuilt.TierOf(id) != topo.TierOf(id) {
			t.Errorf("node %d diverged after round-trip", i)
		}
	}
}

// TestAccessLatencyAsymmetricMatrix pins the access-direction fix: on a
// single-CPU machine every access comes from the node's nearest (only)
// CPU, so AccessLatency must equal the trait latency even when the
// distance matrix is asymmetric — the penalty is measured against the
// CPU->node direction, not the node->CPU one tiering uses.
func TestAccessLatencyAsymmetricMatrix(t *testing.T) {
	nodes := []*mem.Node{
		mem.NewNode(0, mem.KindLocal, 100, 0.02),
		mem.NewNode(1, mem.KindCXL, 100, 0.02),
	}
	traits := []Traits{
		{LoadLatency: LocalDRAMLatencyNs, BandwidthMBps: DDRChannelBandwidthMBps, HasCPU: true},
		{LoadLatency: CXLLatencyDefaultNs, BandwidthMBps: CXLx16BandwidthMBps, HasCPU: false},
	}
	topo, err := New(nodes, traits, [][]int{{10, 25}, {20, 10}})
	if err != nil {
		t.Fatal(err)
	}
	if got := topo.AccessLatency(0, 0); got != LocalDRAMLatencyNs {
		t.Errorf("AccessLatency(0,0) = %v, want %v", got, LocalDRAMLatencyNs)
	}
	if got := topo.AccessLatency(0, 1); got != CXLLatencyDefaultNs {
		t.Errorf("AccessLatency(0,1) = %v, want %v (lone CPU must pay no penalty)", got, CXLLatencyDefaultNs)
	}
}
