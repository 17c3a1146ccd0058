package sim

import (
	"testing"

	"tppsim/internal/core"
	"tppsim/internal/vmstat"
	"tppsim/internal/workload"
)

// TestAllLocalMachineMovesNothing is a metamorphic check over every
// registered policy: on a single-node all-local machine there is no
// tier to move a page to, so no policy migrates, promotes or demotes,
// and throughput falls short of the all-local baseline only by fault
// costs (classic NUMA balancing still pays hint faults on local pages).
func TestAllLocalMachineMovesNothing(t *testing.T) {
	for _, p := range core.Registry() {
		t.Run(p.Key, func(t *testing.T) {
			m, err := New(Config{
				Seed: 3, Policy: p.New(),
				Workload: workload.Catalog["Cache1"](8 << 10),
				Ratio:    [2]uint64{1, 0},
				Minutes:  10,
			})
			if err != nil {
				t.Fatal(err)
			}
			r := m.Run()
			if r.Failed {
				t.Fatalf("run failed: %s", r.FailReason)
			}
			for _, c := range []vmstat.Counter{
				vmstat.PgmigrateSuccess, vmstat.PgmigrateFail,
				vmstat.PgpromoteSuccess, vmstat.PgdemoteKswapd, vmstat.PgdemoteDirect,
			} {
				if n := m.Stat().Get(c); n != 0 {
					t.Errorf("%s = %d on an all-local machine", c, n)
				}
			}
			if thr := r.NormalizedThroughput; thr < 0.9996 || thr > 1 {
				t.Errorf("throughput %v, want within fault costs of 1", thr)
			}
		})
	}
}
