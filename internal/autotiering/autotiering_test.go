package autotiering

import (
	"testing"

	"tppsim/internal/lru"
	"tppsim/internal/mem"
	"tppsim/internal/migrate"
	"tppsim/internal/tier"
	"tppsim/internal/vmstat"
	"tppsim/internal/xrand"
)

type fixture struct {
	store *mem.Store
	topo  *tier.Topology
	vecs  []*lru.Vec
	stat  *vmstat.NodeStats
	at    *Tiering
}

func newFixture(t *testing.T, cfg Config, localPages, cxlPages uint64) *fixture {
	t.Helper()
	topo, err := tier.Spec{Nodes: []tier.NodeSpec{
		{Kind: mem.KindLocal, Pages: localPages},
		{Kind: mem.KindCXL, Pages: cxlPages},
	}}.Build(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return fixtureOver(cfg, topo)
}

// newFixtureSpec assembles a fixture over an arbitrary topology spec
// with absolute per-node page counts.
func newFixtureSpec(t *testing.T, cfg Config, spec tier.Spec) *fixture {
	t.Helper()
	topo, err := spec.Build(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return fixtureOver(cfg, topo)
}

func fixtureOver(cfg Config, topo *tier.Topology) *fixture {
	store := mem.NewStore(int(topo.TotalCapacity()))
	vecs := make([]*lru.Vec, topo.NumNodes())
	for i := range vecs {
		vecs[i] = lru.NewVec(store)
	}
	stat := vmstat.NewNodeStats(topo.NumNodes())
	eng := migrate.NewEngine(migrate.Config{RefsFailProb: -1}, store, topo, vecs, stat, xrand.New(1))
	at := New(cfg, store, topo, vecs, stat, eng)
	return &fixture{store, topo, vecs, stat, at}
}

func (f *fixture) populate(t *testing.T, id mem.NodeID, n int) []mem.PFN {
	t.Helper()
	pfns := make([]mem.PFN, n)
	for i := 0; i < n; i++ {
		if !f.topo.Node(id).Acquire(mem.Anon) {
			t.Fatal("fixture node full")
		}
		pfn := f.store.Alloc(mem.Anon, id)
		f.vecs[id].Add(pfn, false)
		pfns[i] = pfn
	}
	return pfns
}

func (f *fixture) runEpochs(n int) {
	for e := 0; e < n; e++ {
		for i := uint64(0); i < f.at.cfg.EpochTicks; i++ {
			f.at.Tick()
		}
	}
}

func TestDemotesColdestByFrequency(t *testing.T) {
	f := newFixture(t, Config{}, 1000, 1000)
	local := f.topo.Node(0)
	pfns := f.populate(t, 0, int(local.Capacity)-10) // under pressure vs high+buffer
	// Make the first half "hot" this epoch.
	for _, pfn := range pfns[:len(pfns)/2] {
		f.at.RecordAccess(pfn)
	}
	f.runEpochs(1)
	if f.stat.Get(vmstat.PgdemoteKswapd) == 0 {
		t.Fatal("nothing demoted")
	}
	// Every demoted page must be from the cold half.
	for _, pfn := range pfns[:len(pfns)/2] {
		if f.store.Page(pfn).Node != 0 {
			t.Fatal("hot page demoted")
		}
	}
}

func TestEpochResetsCounters(t *testing.T) {
	f := newFixture(t, Config{}, 100, 100)
	pfns := f.populate(t, 0, 10)
	f.at.RecordAccess(pfns[0])
	f.at.RecordAccess(pfns[0])
	if f.store.Page(pfns[0]).AccessEpoch != 2 {
		t.Fatal("RecordAccess did not count")
	}
	f.runEpochs(1)
	if f.store.Page(pfns[0]).AccessEpoch != 0 {
		t.Fatal("epoch did not reset counters")
	}
}

func TestNoDemotionWithoutPressure(t *testing.T) {
	f := newFixture(t, Config{}, 1000, 1000)
	f.populate(t, 0, 100) // far above high+buffer
	f.runEpochs(1)
	if f.stat.Get(vmstat.PgdemoteKswapd) != 0 {
		t.Fatal("demoted without pressure")
	}
}

func TestPromotionBufferSlots(t *testing.T) {
	f := newFixture(t, Config{BufferFraction: 0.02}, 100, 100)
	if f.at.BufferSlots() != 2 {
		t.Fatalf("buffer slots = %d, want 2", f.at.BufferSlots())
	}
	if !f.at.PromotionGate(0) {
		t.Fatal("gate closed with slots free")
	}
	f.at.OnPromoted(0)
	f.at.OnPromoted(0)
	if f.at.BufferSlots() != 0 {
		t.Fatal("slots not consumed")
	}
	if f.at.PromotionGate(0) {
		t.Fatal("gate open with no slots")
	}
}

func TestDemotionReplenishesSlots(t *testing.T) {
	f := newFixture(t, Config{BufferFraction: 0.02}, 1000, 1000)
	local := f.topo.Node(0)
	f.populate(t, 0, int(local.Capacity)-5)
	// Drain the buffer.
	for f.at.BufferSlots() > 0 {
		f.at.OnPromoted(0)
	}
	f.runEpochs(1)
	if f.at.BufferSlots() == 0 {
		t.Fatal("demotion did not replenish slots")
	}
}

func TestCrashOnSmallLocalNode(t *testing.T) {
	// 1:4 machine: the local node is 20% of total, below the tolerated
	// fraction; sustained promotion starvation must crash the run.
	f := newFixture(t, Config{CrashEpochs: 3, BufferFraction: 0.02}, 1000, 4000)
	pfns := f.populate(t, 0, 500)
	for f.at.BufferSlots() > 0 {
		f.at.OnPromoted(0)
	}
	for e := 0; e < 5; e++ {
		for _, pfn := range pfns {
			f.at.RecordAccess(pfn) // hot: demotion finds no candidates
		}
		// Starved promotion demand each epoch.
		f.at.PromotionGate(0)
		f.runEpochs(1)
		if f.at.Failed() {
			break
		}
	}
	if !f.at.Failed() {
		t.Fatal("sustained starvation on a 1:4 machine did not crash AutoTiering")
	}
	// After failure the daemon is inert.
	if f.at.Tick() != 0 {
		t.Fatal("failed daemon still running")
	}
}

func TestNoCrashOnLargeLocalNode(t *testing.T) {
	// 2:1 machine: same starvation pattern, but the local node share is
	// above the tolerated fraction — promotion just halts, no crash.
	f := newFixture(t, Config{CrashEpochs: 3, BufferFraction: 0.02}, 1000, 500)
	pfns := f.populate(t, 0, 500)
	for f.at.BufferSlots() > 0 {
		f.at.OnPromoted(0)
	}
	for e := 0; e < 6; e++ {
		for _, pfn := range pfns {
			f.at.RecordAccess(pfn)
		}
		f.at.PromotionGate(0)
		f.runEpochs(1)
	}
	if f.at.Failed() {
		t.Fatal("AutoTiering crashed on a 2:1 machine")
	}
}

func TestStarvationRecoveryResetsCounter(t *testing.T) {
	f := newFixture(t, Config{CrashEpochs: 2, BufferFraction: 0.02}, 1000, 4000)
	f.populate(t, 0, 500)
	for f.at.BufferSlots() > 0 {
		f.at.OnPromoted(0)
	}
	// One starved epoch, then a quiet epoch: counter must reset.
	f.at.PromotionGate(0)
	f.runEpochs(1)
	f.runEpochs(1) // no starvation this epoch
	f.at.PromotionGate(0)
	f.runEpochs(1)
	if f.at.Failed() {
		t.Fatal("non-consecutive starvation crashed AutoTiering")
	}
}

// asymDualSpec is a dual-socket machine with one memory-poor socket:
// socket 1 holds 10% of total memory (below the tolerated 25%), while
// the CPU tier in aggregate holds 50% (well above it). Only a
// per-socket crash heuristic distinguishes the two.
func asymDualSpec() tier.Spec {
	return tier.Spec{
		Name: "dualsocket-asym-test",
		Nodes: []tier.NodeSpec{
			{Kind: mem.KindLocal, Pages: 4000},
			{Kind: mem.KindLocal, Pages: 1000},
			{Kind: mem.KindCXL, Pages: 2500},
			{Kind: mem.KindCXL, Pages: 2500},
		},
		Distance: [][]int{
			{10, 32, 20, 42},
			{32, 10, 42, 20},
			{20, 42, 10, 52},
			{42, 20, 52, 10},
		},
	}
}

// drainSocket consumes every promotion-buffer slot of one CPU node.
func (f *fixture) drainSocket(id mem.NodeID) {
	for f.at.NodeBufferSlots(id) > 0 {
		f.at.OnPromoted(id)
	}
}

// TestPerSocketCrashOnStarvedSmallSocket pins the per-socket crash
// heuristic on the dual-socket machine: sustained promotion starvation
// on the memory-poor socket (10% of total) crashes the run even though
// the machine-wide CPU tier holds 50% — under the old aggregate
// heuristic this configuration could never fail.
func TestPerSocketCrashOnStarvedSmallSocket(t *testing.T) {
	f := newFixtureSpec(t, Config{CrashEpochs: 3, BufferFraction: 0.001}, asymDualSpec())
	f.drainSocket(1)
	for e := 0; e < 5 && !f.at.Failed(); e++ {
		f.at.PromotionGate(1) // starved promotion demand into socket 1
		f.runEpochs(1)
	}
	if !f.at.Failed() {
		t.Fatal("sustained starvation on the small (10 pct share) socket did not crash AutoTiering")
	}
}

// TestNoPerSocketCrashOnLargeSocket is the other half of the pin: the
// same starvation pattern against the large socket (40% of total, above
// the tolerated share) must never crash — each socket is judged by its
// own share.
func TestNoPerSocketCrashOnLargeSocket(t *testing.T) {
	f := newFixtureSpec(t, Config{CrashEpochs: 3, BufferFraction: 0.001}, asymDualSpec())
	f.drainSocket(0)
	for e := 0; e < 6; e++ {
		f.at.PromotionGate(0)
		f.runEpochs(1)
	}
	if f.at.Failed() {
		t.Fatal("starvation on the large (40 pct share) socket crashed AutoTiering")
	}
}

// TestPerSocketStarvationRecovery: a quiet epoch on the small socket
// resets its counter, exactly like the single-socket heuristic.
func TestPerSocketStarvationRecovery(t *testing.T) {
	f := newFixtureSpec(t, Config{CrashEpochs: 2, BufferFraction: 0.001}, asymDualSpec())
	f.drainSocket(1)
	f.at.PromotionGate(1)
	f.runEpochs(1)
	f.runEpochs(1) // no starvation this epoch
	f.at.PromotionGate(1)
	f.runEpochs(1)
	if f.at.Failed() {
		t.Fatal("non-consecutive starvation crashed AutoTiering")
	}
}

func TestRankingCostReported(t *testing.T) {
	f := newFixture(t, Config{}, 1000, 1000)
	f.populate(t, 0, 500)
	var spent float64
	for i := uint64(0); i < f.at.cfg.EpochTicks; i++ {
		spent += f.at.Tick()
	}
	if spent <= 0 {
		t.Fatal("epoch ranking reported no CPU cost")
	}
}
