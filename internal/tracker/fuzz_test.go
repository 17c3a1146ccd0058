package tracker

import "testing"

// FuzzTrackerSpec holds the -tracker syntax to a round trip: for any
// input that parses (ParseSpec validates), the canonical form Spec
// renders is a fixed point of ParseSpec then Spec. Validation itself
// must never panic.
//
//	go test -fuzz=FuzzTrackerSpec -fuzztime=15s -run '^FuzzTrackerSpec$' ./internal/tracker
func FuzzTrackerSpec(f *testing.F) {
	for _, seed := range []string{
		// The README examples.
		"idlepage",
		"damon",
		"idlepage:scan=4,halflife=32,oracle=1",
		"softdirty:scan=4,gran=8",
		"damon:scan=16,gran=1,regions=64,samples=32,halflife=12.5,range=64,oracle=1,seed=9",
		"idlepage:halflife=NaN",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := ParseSpec(spec)
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("ParseSpec(%q) returned a config that fails validation: %v", spec, err)
		}
		canon := c.Spec()
		back, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not parse: %v", canon, spec, err)
		}
		if again := back.Spec(); again != canon {
			t.Fatalf("Spec is not a fixed point for %q: %q then %q", spec, canon, again)
		}
	})
}
