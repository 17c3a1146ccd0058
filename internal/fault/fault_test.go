package fault

import (
	"strings"
	"testing"

	"tppsim/internal/mem"
	"tppsim/internal/tier"
	"tppsim/internal/vmstat"
)

func TestParseSpecRoundTrip(t *testing.T) {
	specs := []string{
		"offline:node=2,at=100,until=200",
		"seed=42;offline:node=1,at=600",
		"latency:node=1,at=50,until=150,mult=2.5,jitter=0.1",
		"migfail:prob=0.2,at=100,until=200,retries=5",
		"shrink:node=1,at=300,pages=1024",
		"seed=7;offline:node=2,at=10,until=20;latency:node=1,at=5,until=30,mult=3;migfail:prob=0.5,at=1;shrink:node=1,at=40,pages=16",
	}
	for _, spec := range specs {
		s, err := ParseSpec(spec)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", spec, err)
			continue
		}
		canon := s.Spec()
		s2, err := ParseSpec(canon)
		if err != nil {
			t.Errorf("ParseSpec(Spec()) of %q: %v", spec, err)
			continue
		}
		if got := s2.Spec(); got != canon {
			t.Errorf("spec %q: round trip %q != %q", spec, got, canon)
		}
	}
	// "from" is an accepted alias for "at".
	a, err := ParseSpec("offline:node=1,from=7")
	if err != nil || len(a.Events) != 1 || a.Events[0].At != 7 {
		t.Errorf("from= alias: %+v, %v", a, err)
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"boom:node=1,at=5",
		"offline:node",
		"offline:node=x,at=5",
		"offline:node=1,when=5",
		"seed=banana",
		"latency",
	}
	for _, spec := range bad {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted malformed input", spec)
		}
	}
}

func TestCompileDeterministicAndSorted(t *testing.T) {
	s := Schedule{Seed: 9, Events: []Event{
		{Kind: MigFailBegin, Node: -1, At: 500, Until: 600, Prob: 0.3},
		{Kind: NodeOffline, Node: 2, At: 100, Until: 400},
		{Kind: LatencyDegrade, Node: 1, At: 50, Until: 300, Mult: 2, Jitter: 0.5},
	}}
	a, b := s.Compile(), s.Compile()
	if len(a) != 6 {
		t.Fatalf("compiled to %d edges, want 6 (3 begins + 3 ends)", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("compile not deterministic: edge %d %+v != %+v", i, a[i], b[i])
		}
		if i > 0 && a[i].Tick < a[i-1].Tick {
			t.Fatalf("edges not tick-sorted: %+v after %+v", a[i], a[i-1])
		}
	}
	// Jitter resolves inside Mult*(1±Jitter) and differs across seeds.
	var lat Edge
	for _, e := range a {
		if e.Kind == LatencyDegrade {
			lat = e
		}
	}
	if lat.Arg <= 1 || lat.Arg >= 3 {
		t.Errorf("jittered multiplier %g outside (1, 3)", lat.Arg)
	}
	s2 := s
	s2.Seed = 10
	var lat2 Edge
	for _, e := range s2.Compile() {
		if e.Kind == LatencyDegrade {
			lat2 = e
		}
	}
	if lat.Arg == lat2.Arg {
		t.Error("different seeds resolved identical jitter")
	}
	// MaxRetries defaults to 3 on migfail begin edges.
	for _, e := range a {
		if e.Kind == MigFailBegin && e.MaxRetries != 3 {
			t.Errorf("migfail MaxRetries = %d, want default 3", e.MaxRetries)
		}
	}
}

func TestValidate(t *testing.T) {
	topo, err := tier.Spec{Nodes: []tier.NodeSpec{
		{Kind: mem.KindLocal, Pages: 1024},
		{Kind: mem.KindCXL, Pages: 512},
	}}.Build(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ok := Schedule{Events: []Event{
		{Kind: NodeOffline, Node: 1, At: 5, Until: 10},
		{Kind: MigFailBegin, Node: -1, At: 1, Prob: 0.5},
	}}
	if err := ok.Validate(topo); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
	bad := []Schedule{
		{Events: []Event{{Kind: NodeOffline, Node: 0, At: 5}}},
		{Events: []Event{{Kind: NodeOffline, Node: 5, At: 5}}},
		{Events: []Event{{Kind: NodeOnline, Node: 1, At: 5}}},
		{Events: []Event{{Kind: MigFailBegin, Prob: 0, At: 5}}},
		{Events: []Event{{Kind: LatencyDegrade, Node: 1, At: 5, Mult: 0.5}}},
		{Events: []Event{{Kind: LatencyDegrade, Node: 1, At: 5, Mult: 2, Jitter: 1}}},
		{Events: []Event{{Kind: CapacityLoss, Node: 1, At: 5, Pages: 0}}},
		{Events: []Event{{Kind: NodeOffline, Node: 1, At: 10, Until: 10}}},
	}
	for i, s := range bad {
		if err := s.Validate(topo); err == nil {
			t.Errorf("bad schedule %d accepted", i)
		}
	}
}

// TestValidateRejectsNonFinite pins the spec values every range check
// used to wave through: NaN fails every comparison, and +Inf is above
// any lower bound.
func TestValidateRejectsNonFinite(t *testing.T) {
	topo, err := tier.Spec{Nodes: []tier.NodeSpec{
		{Kind: mem.KindLocal, Pages: 1024},
		{Kind: mem.KindCXL, Pages: 512},
	}}.Build(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{
		"latency:node=1,at=5,until=500,mult=NaN",
		"latency:node=1,at=5,until=500,mult=+Inf",
		"latency:node=1,at=5,until=500,mult=Inf",
		"latency:node=1,at=5,until=500,mult=2,jitter=NaN",
		"latency:node=1,at=5,until=500,mult=2,jitter=-0.5",
		"migfail:prob=NaN,at=5",
		"migfail:prob=+Inf,at=5",
		"migfail:prob=0.5,at=5,retries=-1",
	} {
		s, err := ParseSpec(spec)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", spec, err)
			continue
		}
		if err := s.Validate(topo); err == nil {
			t.Errorf("Validate accepted %q", spec)
		}
	}
}

func TestRetrierBackoffAndExhaustion(t *testing.T) {
	stat := vmstat.NewNodeStats(2)
	// prob=1: every roll fails, so the whole backoff ladder is exercised
	// deterministically.
	r := NewRetrier(1, stat)
	r.SetWindow(1.0, 2)
	pfn, src, dst := mem.PFN(7), mem.NodeID(1), mem.NodeID(0)

	r.BeginTick(100)
	if err := r.OnMigrateAttempt(pfn, src, dst, true); err != ErrInjected {
		t.Fatalf("first attempt: %v, want ErrInjected", err)
	}
	// Backoff 1 tick: tick 100 again refuses, 101 allows a retry.
	if err := r.OnMigrateAttempt(pfn, src, dst, true); err != ErrBackoff {
		t.Fatalf("in-backoff attempt: %v, want ErrBackoff", err)
	}
	r.BeginTick(101)
	if err := r.OnMigrateAttempt(pfn, src, dst, true); err != ErrInjected {
		t.Fatalf("second attempt: %v, want ErrInjected", err)
	}
	if got := stat.GetNode(src, vmstat.MigrateRetry); got != 1 {
		t.Errorf("migrate_retry = %d, want 1", got)
	}
	// Backoff now 2 ticks (1<<1): 102 refuses, 103 allows.
	r.BeginTick(102)
	if err := r.OnMigrateAttempt(pfn, src, dst, true); err != ErrBackoff {
		t.Fatalf("second backoff: %v, want ErrBackoff", err)
	}
	r.BeginTick(103)
	if err := r.OnMigrateAttempt(pfn, src, dst, true); err != ErrExhausted {
		t.Fatalf("third attempt: %v, want ErrExhausted (maxRetries=2)", err)
	}
	if got := stat.GetNode(src, vmstat.MigrateBackoffDrop); got != 1 {
		t.Errorf("migrate_backoff_drop = %d, want 1", got)
	}
	if got := stat.GetNode(src, vmstat.MigrateRetry); got != 2 {
		t.Errorf("migrate_retry = %d, want 2", got)
	}
	// Exhaustion forgets the page: a fresh attempt restarts the ladder.
	if err := r.OnMigrateAttempt(pfn, src, dst, true); err != ErrInjected {
		t.Fatalf("post-exhaustion attempt: %v, want ErrInjected", err)
	}

	// Closed window: no interference at all.
	r.ClearWindow()
	if err := r.OnMigrateAttempt(pfn, src, dst, true); err != nil {
		t.Fatalf("closed window attempt: %v, want nil", err)
	}

	// Success clears backoff state.
	r.SetWindow(0, 3) // prob 0: every roll succeeds
	r.BeginTick(200)
	if err := r.OnMigrateAttempt(pfn, src, dst, true); err != nil {
		t.Fatalf("prob-0 attempt: %v", err)
	}
	r.OnMigrateSuccess(pfn)
}

func TestInvariantChecker(t *testing.T) {
	topo, err := tier.Spec{Nodes: []tier.NodeSpec{
		{Kind: mem.KindLocal, Pages: 64},
		{Kind: mem.KindCXL, Pages: 32},
	}}.Build(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	store := mem.NewStore(int(topo.TotalCapacity()))
	stat := vmstat.NewNodeStats(topo.NumNodes())
	c := NewInvariantChecker(topo, store, stat)
	if err := c.Check(); err != nil {
		t.Fatalf("empty machine: %v", err)
	}
	// Allocate one page on node 1, consistently.
	store.Alloc(mem.Anon, 1)
	topo.Node(1).Acquire(mem.Anon)
	if err := c.Check(); err != nil {
		t.Fatalf("consistent machine: %v", err)
	}
	// Offline the node while it still holds the page: violation.
	topo.SetOffline(1, true)
	if err := c.Check(); err == nil || !strings.Contains(err.Error(), "offline") {
		t.Errorf("offline node with resident page: err = %v", err)
	}
	topo.SetOffline(1, false)
	// Unbalance the node counts vs the store: violation.
	topo.Node(1).Acquire(mem.Anon)
	if err := c.Check(); err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Errorf("page-count divergence: err = %v", err)
	}
}
