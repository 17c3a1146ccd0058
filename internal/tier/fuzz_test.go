package tier

import (
	"math"
	"reflect"
	"testing"

	"tppsim/internal/mem"
)

// specFrom decodes a fuzz input into a Spec. raw[0] picks the node
// count (0-4), then three bytes per node pick its kind, its absolute
// pages or share, and whether it takes lat and bw as overrides; a
// trailing byte per matrix entry, when all are present, supplies the
// distance matrix (otherwise it is synthesized).
func specFrom(raw []byte, dsf, lat, bw float64, huge bool) Spec {
	s := Spec{Name: "fuzz", DemoteScaleFactor: dsf, HugePages: huge}
	if len(raw) == 0 {
		return s
	}
	n := int(raw[0] % 5)
	raw = raw[1:]
	for i := 0; i < n && len(raw) >= 3; i++ {
		b := raw[:3]
		raw = raw[3:]
		ns := NodeSpec{Kind: mem.NodeKind(b[0] & 1)}
		if b[1]&0x80 != 0 {
			ns.Share = uint64(b[1] & 0x7f)
		} else {
			ns.Pages = uint64(b[1]) << (b[0] >> 4)
		}
		if b[2]&1 != 0 {
			ns.LoadLatencyNs = lat
		}
		if b[2]&2 != 0 {
			ns.BandwidthMBps = bw
		}
		s.Nodes = append(s.Nodes, ns)
	}
	if n := len(s.Nodes); n > 0 && len(raw) >= n*n {
		s.Distance = make([][]int, n)
		for i := range s.Distance {
			s.Distance[i] = make([]int, n)
			for j := range s.Distance[i] {
				s.Distance[i][j] = int(raw[i*n+j])
			}
		}
	}
	return s
}

// FuzzTopologySpec holds machine descriptions to a round trip: for any
// spec, Validate and Build never panic, a spec Validate rejects never
// builds, and every built topology's Spec is a fixed point of Build
// then Spec.
//
//	go test -fuzz=FuzzTopologySpec -fuzztime=15s -run '^FuzzTopologySpec$' ./internal/tier
func FuzzTopologySpec(f *testing.F) {
	f.Add([]byte{2, 0, 0x82, 0, 1, 0x81, 3}, 0.0, 0.0, 0.0, uint64(4096), false) // PresetCXL(2, 1)
	f.Add([]byte{3, 0, 0x82, 0, 1, 0x81, 0, 1, 0x81, 3}, 0.05, 300.0, 32000.0, uint64(8192), true)
	f.Add([]byte{2, 0, 100, 0, 1, 50, 0, 10, 20, 20, 10}, 0.02, 0.0, 0.0, uint64(0), false) // explicit matrix
	f.Add([]byte{2, 0, 100, 0, 1, 50, 3}, math.NaN(), 0.0, 0.0, uint64(0), false)
	f.Add([]byte{2, 0, 100, 0, 1, 50, 3}, 0.0, math.Inf(1), -1.0, uint64(0), false)
	f.Add([]byte{1, 1, 0x81, 0}, 0.0, 0.0, 0.0, uint64(100), false) // CPU-less node 0
	f.Fuzz(func(t *testing.T, raw []byte, dsf, lat, bw float64, ws uint64, huge bool) {
		spec := specFrom(raw, dsf, lat, bw, huge)
		verr := spec.Validate()
		topo, err := spec.Build(ws%(1<<40), 0.08)
		if err != nil {
			return
		}
		if verr != nil {
			t.Fatalf("Build accepted %+v, which Validate rejects: %v", spec, verr)
		}
		canon := topo.Spec()
		back, err := canon.Build(0, 0)
		if err != nil {
			t.Fatalf("canonical spec %+v of %+v does not build: %v", canon, spec, err)
		}
		if again := back.Spec(); !reflect.DeepEqual(again, canon) {
			t.Fatalf("Spec is not a fixed point for %+v: %+v then %+v", spec, canon, again)
		}
	})
}
