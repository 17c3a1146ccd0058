package pagetable

import (
	"testing"

	"tppsim/internal/mem"
	"tppsim/internal/xrand"
)

// benchSpace builds an address space shaped like a running machine: a
// few large static regions plus a cluster of small churn segments, with
// every page mapped.
func benchSpace(b *testing.B, as *AddressSpace) (*AddressSpace, []VPN) {
	return agedSpace(b, as, 0)
}

// agedSpace is benchSpace after the churn segments have been recycled
// (oldest unmapped, a fresh one mapped, as workload churn does) until
// the next free VPN reaches untilVPN. The mapped working set is the
// same; only dead VA has accumulated above the static regions.
func agedSpace(b *testing.B, as *AddressSpace, untilVPN VPN) (*AddressSpace, []VPN) {
	b.Helper()
	var regions []Region
	regions = append(regions,
		as.Mmap(6000, mem.Tmpfs),
		as.Mmap(1000, mem.Anon),
		as.Mmap(500, mem.File),
	)
	for i := 0; i < 12; i++ {
		regions = append(regions, as.Mmap(34, mem.Anon))
	}
	for as.nextVPN < untilVPN {
		as.Munmap(regions[3], nil)
		copy(regions[3:], regions[4:])
		regions[len(regions)-1] = as.Mmap(34, mem.Anon)
	}
	next := mem.PFN(0)
	var vpns []VPN
	for _, r := range regions {
		for v := r.Start; v < r.End(); v++ {
			as.MapPage(v, next)
			next++
			vpns = append(vpns, v)
		}
	}
	// Access order shaped like the simulator's stream: random across
	// regions, not sequential.
	rng := xrand.New(42)
	for i := len(vpns) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		vpns[i], vpns[j] = vpns[j], vpns[i]
	}
	return as, vpns
}

// BenchmarkTranslate measures the VPN→PFN lookup the access hot path
// performs once per simulated access.
func BenchmarkTranslate(b *testing.B) {
	as, vpns := benchSpace(b, New(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pfn, ok := as.Translate(vpns[i%len(vpns)])
		if !ok || pfn == mem.NilPFN {
			b.Fatal("unmapped VPN in benchmark space")
		}
	}
}

// BenchmarkTranslateBatch measures the batched variant the simulator's
// per-tick access loop uses, on a fresh address space and on an aged one.
// Aging recycles churn segments until the next free VPN reaches ~700K,
// where steady-small's machine ends its measured window. The dead VA
// above the static regions coarsens the 1024-bucket region index (its
// shift grows from 3 to 10 here), so about a third of the accesses,
// against almost none fresh, land in buckets that straddle a region
// boundary and walk the region starts.
func BenchmarkTranslateBatch(b *testing.B) {
	for _, tc := range []struct {
		name  string
		until VPN
	}{{"fresh", 0}, {"aged", 700_000}} {
		b.Run(tc.name, func(b *testing.B) {
			as, vpns := agedSpace(b, New(1), tc.until)
			const batch = 2000
			out := make([]mem.PFN, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := (i * batch) % (len(vpns) - batch)
				as.TranslateBatch(vpns[off:off+batch], out)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/access")
			if out[0] == mem.NilPFN && out[1] == mem.NilPFN {
				b.Fatal("batch translated nothing")
			}
		})
	}
}

// BenchmarkFaultPath measures the page-table half of a demand fault:
// translate miss, region lookup, eviction-state check, map, and the
// reclaim-side unmap that makes the next fault possible.
func BenchmarkFaultPath(b *testing.B) {
	as := New(1)
	r := as.Mmap(4096, mem.Anon)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := r.Start + VPN(i%4096)
		if _, ok := as.Translate(v); ok {
			b.Fatal("page unexpectedly mapped")
		}
		if _, ok := as.RegionOf(v); !ok {
			b.Fatal("region lost")
		}
		_ = as.Evicted(v)
		pfn := mem.PFN(i % 4096)
		as.MapPage(v, pfn)
		if _, ok := as.UnmapPFN(pfn, EvictSwap); !ok {
			b.Fatal("unmap failed")
		}
	}
}
