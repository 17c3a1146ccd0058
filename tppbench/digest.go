package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"math"

	"tppsim"
	"tppsim/internal/metrics"
)

// expectedDigests are the run digests of the untraced (10 s) and traced
// (2.5 s) lengths for seeds 1 and 2, keyed by digestKey. The simulator is
// deterministic, so these repeat exactly on any host of the same
// architecture; a change to simulated behaviour must recapture them and
// say why. Other seeds and lengths are reported unchecked. huge-tb's
// outputs do not depend on the seed: every access is local and nothing
// is reclaimed or migrated.
var expectedDigests = map[string]uint64{
	"steady-small seed=1 seconds=10":     0xf345df5639c3ec15,
	"steady-small seed=2 seconds=10":     0x65ee85e291b2dc47,
	"steady-small seed=1 seconds=2.5":    0xe23c4a591b7373af,
	"steady-small seed=2 seconds=2.5":    0x2a41fa60e80b15e4,
	"churn-large seed=1 seconds=10":      0x2a7b3b3f091e7b87,
	"churn-large seed=2 seconds=10":      0x3269df02497b8d1e,
	"churn-large seed=1 seconds=2.5":     0x38d7cdc4ff1b3f21,
	"churn-large seed=2 seconds=2.5":     0xe7d1d7a4cf1ed3fc,
	"huge-tb seed=1 seconds=10":          0x824d8dd95630279f,
	"huge-tb seed=2 seconds=10":          0x824d8dd95630279f,
	"huge-tb seed=1 seconds=2.5":         0x6dc9dcc12e66bd52,
	"huge-tb seed=2 seconds=2.5":         0x6dc9dcc12e66bd52,
	"tiered-pressure seed=1 seconds=10":  0x752911fbf7ef3817,
	"tiered-pressure seed=2 seconds=10":  0x56058ee40631d731,
	"tiered-pressure seed=1 seconds=2.5": 0xdaed809c70f63613,
	"tiered-pressure seed=2 seconds=2.5": 0x3ddbe83e3f341558,
	"table1-sweep seed=1 seconds=10":     0x6c3f03d2f2008d29,
	"table1-sweep seed=2 seconds=10":     0xf35c296f1bf9d499,
	"table1-sweep seed=1 seconds=2.5":    0xef0711cf3d1da86f,
	"table1-sweep seed=2 seconds=2.5":    0xb3432816a82c67f9,
}

func digestKey(name string, seed uint64, seconds float64) string {
	return fmt.Sprintf("%s seed=%d seconds=%g", name, seed, seconds)
}

// digestMachine folds a machine's simulated outputs into h: its tick and
// failure state, every node's vmstat counters, the figure series in its
// results, and the page table's extent, split, merge and resident counts.
func digestMachine(h hash.Hash64, m *tppsim.Machine) {
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(m.Tick())
	if failed, why := m.Failed(); failed {
		io.WriteString(h, why)
	}
	for _, sn := range m.NodeVmstat(nil) {
		for _, v := range sn {
			put(v)
		}
	}
	r := m.Results()
	for _, s := range []*metrics.Series{
		&r.LocalTraffic, &r.AvgLatency, &r.AllocRate, &r.LocalAllocRate,
		&r.PromotionRate, &r.DemotionRate, &r.Throughput, &r.AnonResidency,
		&r.MigrationRate, &r.UtilTotal, &r.UtilAnon, &r.UtilFile,
	} {
		put(uint64(len(s.X)))
		for i := range s.X {
			put(math.Float64bits(s.X[i]))
			put(math.Float64bits(s.Y[i]))
		}
	}
	ms := m.MemStats()
	put(uint64(ms.Extents))
	put(ms.Splits)
	put(ms.Merges)
	put(ms.ResidentPages)
}

// checkConservation reports a machine whose nodes hold a different number
// of resident pages than its page store has live frames.
func checkConservation(m *tppsim.Machine) error {
	var resident uint64
	for _, n := range m.Topology().Nodes() {
		resident += n.Resident()
	}
	if live := m.MemStats().ResidentPages; resident != live {
		return fmt.Errorf("page conservation: nodes hold %d resident pages, the store has %d live", resident, live)
	}
	return nil
}
