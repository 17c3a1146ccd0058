package fault

import (
	"testing"

	"tppsim/internal/tier"
)

// FuzzFaultSpec holds the -faults syntax to a round trip: for any input
// that parses and validates against a 3-node expander, the canonical
// form Spec renders is a fixed point of ParseSpec then Spec, and still
// validates. Validation itself must never panic.
//
//	go test -fuzz=FuzzFaultSpec -fuzztime=15s -run '^FuzzFaultSpec$' ./internal/fault
func FuzzFaultSpec(f *testing.F) {
	for _, seed := range []string{
		// The README examples.
		"offline:node=2,at=480,until=720",
		"latency:node=1,at=300,until=600,mult=3,jitter=0.1;migfail:prob=0.2,at=300,until=600,retries=3;seed=42",
		"shrink:node=1,at=300,pages=1024",
		"offline:node=1,from=7",
		"latency:node=1,at=5,until=500,mult=NaN",
		"migfail:prob=1,at=0;;seed=0",
	} {
		f.Add(seed)
	}
	topo, err := tier.PresetExpander(2, 1, 1).Build(4096, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSpec(spec)
		if err != nil || s.Validate(topo) != nil {
			return
		}
		canon := s.Spec()
		back, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not parse: %v", canon, spec, err)
		}
		if err := back.Validate(topo); err != nil {
			t.Fatalf("canonical form %q of %q does not validate: %v", canon, spec, err)
		}
		if again := back.Spec(); again != canon {
			t.Fatalf("Spec is not a fixed point for %q: %q then %q", spec, canon, again)
		}
	})
}
