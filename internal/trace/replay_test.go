package trace_test

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"tppsim/internal/core"
	"tppsim/internal/sim"
	"tppsim/internal/tier"
	"tppsim/internal/trace"
	"tppsim/internal/vmstat"
	"tppsim/internal/workload"
)

// TestRecordReplayDeterminism is the subsystem's core guarantee:
// recording a catalog run and replaying the trace under the same policy,
// seed, and machine configuration reproduces the original's scalar
// results exactly — including the vmstat counters, which catch any
// divergence in the fault, reclaim, and migration sequences.
func TestRecordReplayDeterminism(t *testing.T) {
	for _, wlName := range []string{"Cache1", "Web1"} {
		t.Run(wlName, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), wlName+".trace.gz")
			cfg := sim.Config{
				Seed:     3,
				Policy:   core.TPP(),
				Workload: workload.Catalog[wlName](4 * 1024),
				Topology: tier.PresetCXL(2, 1),
				Minutes:  6,
				RecordTo: path,
			}
			rec, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			base := rec.Run()
			if err := rec.RecordError(); err != nil {
				t.Fatalf("recording: %v", err)
			}
			if base.Failed {
				t.Fatalf("recorded run failed: %s", base.FailReason)
			}

			tr, err := trace.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Header.Name != wlName {
				t.Fatalf("header name %q, want %q", tr.Header.Name, wlName)
			}

			cfg.RecordTo = ""
			cfg.Workload = tr.Replayer(trace.ReplayOptions{})
			rep, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := rep.Run()
			if got.Failed {
				t.Fatalf("replay failed: %s", got.FailReason)
			}
			if got.NormalizedThroughput != base.NormalizedThroughput ||
				got.AvgLocalTraffic != base.AvgLocalTraffic ||
				got.AvgLatencyNs != base.AvgLatencyNs {
				t.Fatalf("scalars diverged:\n  recorded: tp=%v local=%v lat=%v\n  replayed: tp=%v local=%v lat=%v",
					base.NormalizedThroughput, base.AvgLocalTraffic, base.AvgLatencyNs,
					got.NormalizedThroughput, got.AvgLocalTraffic, got.AvgLatencyNs)
			}
			if !rec.Stat().Snapshot().Equal(rep.Stat().Snapshot()) {
				t.Fatal("vmstat snapshots diverged between record and replay")
			}
		})
	}
}

// TestReplayAcrossPolicies checks the apples-to-apples property: one
// trace drives machines under different policies without error.
func TestReplayAcrossPolicies(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c1.trace")
	cfg := sim.Config{
		Seed:     1,
		Policy:   core.DefaultLinux(),
		Workload: workload.Catalog["Cache1"](4 * 1024),
		Topology: tier.PresetCXL(2, 1),
		Minutes:  5,
		RecordTo: path,
	}
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res := m.Run(); res.Failed {
		t.Fatalf("recording run failed: %s", res.FailReason)
	}
	if err := m.RecordError(); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []core.Policy{core.DefaultLinux(), core.TPP(), core.NUMABalancing()} {
		rp := tr.Replayer(trace.ReplayOptions{})
		m, err := sim.New(sim.Config{
			Seed: 1, Policy: p, Workload: rp, Topology: tier.PresetCXL(2, 1), Minutes: 5,
		})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		res := m.Run()
		if res.Failed {
			t.Fatalf("%s: replay failed: %s", p.Name, res.FailReason)
		}
		if err := rp.Err(); err != nil {
			t.Fatalf("%s: replayer: %v", p.Name, err)
		}
		if res.AvgLocalTraffic <= 0 {
			t.Fatalf("%s: no local traffic recorded", p.Name)
		}
	}
}

// TestReplayLoopAndTruncate exercises the Replayer options: a short
// generated trace looping seamlessly past its end (static regions), a
// churning trace looping via full restart, and MaxTicks truncation.
func TestReplayLoopAndTruncate(t *testing.T) {
	gen := trace.GenConfig{Pages: 2048, Minutes: 2, AccessesPerTick: 100, Seed: 5}
	runFor := func(wl workload.Workload, minutes int) *sim.Machine {
		t.Helper()
		m, err := sim.New(sim.Config{
			Seed: 1, Policy: core.TPP(), Workload: wl,
			Topology: tier.PresetCXL(2, 1), Minutes: minutes, AccessesPerTick: 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res := m.Run(); res.Failed {
			t.Fatalf("run failed: %s", res.FailReason)
		}
		return m
	}

	// Seamless wrap: PhaseShift's regions are static, so a 2-minute
	// trace must drive a 5-minute run with accesses in every tick.
	rp := trace.PhaseShift(gen).Replayer(trace.ReplayOptions{Loop: true})
	m := runFor(rp, 5)
	if err := rp.Err(); err != nil {
		t.Fatalf("loop replay: %v", err)
	}
	if got := m.Results().Throughput.Len(); got == 0 {
		t.Fatal("no throughput samples")
	}

	// Restart wrap: AdvChurn's ring has rotated by end of trace, so the
	// wrap tears down and replays from the start section.
	rp = trace.AdversarialChurn(gen).Replayer(trace.ReplayOptions{Loop: true})
	runFor(rp, 5)
	if err := rp.Err(); err != nil {
		t.Fatalf("restart-loop replay: %v", err)
	}

	// Truncate: only the first 30 ticks of the trace replay; afterwards
	// the workload goes quiet but the machine keeps running.
	rp = trace.SequentialScan(gen).Replayer(trace.ReplayOptions{MaxTicks: 30})
	runFor(rp, 3)
	if err := rp.Err(); err != nil {
		t.Fatalf("truncated replay: %v", err)
	}

	// Truncate + Loop: the 30-tick prefix loops for the whole run.
	rp = trace.SequentialScan(gen).Replayer(trace.ReplayOptions{MaxTicks: 30, Loop: true})
	runFor(rp, 3)
	if err := rp.Err(); err != nil {
		t.Fatalf("truncated-loop replay: %v", err)
	}
}

// TestCorruptTraceFailsRun guards against silent bogus results: a
// truncated trace must mark the replay run failed, not let the machine
// idle to a healthy-looking scalar.
func TestCorruptTraceFailsRun(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ok.trace")
	m, err := sim.New(sim.Config{
		Seed: 1, Policy: core.TPP(), Workload: workload.Catalog["Cache1"](4 * 1024),
		Topology: tier.PresetCXL(2, 1), Minutes: 4, RecordTo: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res := m.Run(); res.Failed {
		t.Fatalf("recording run failed: %s", res.FailReason)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.trace")
	if err := os.WriteFile(cut, raw[:len(raw)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Load(cut)
	if err != nil {
		t.Fatal(err) // the header region survives; corruption is mid-stream
	}
	rp := tr.Replayer(trace.ReplayOptions{})
	m, err = sim.New(sim.Config{
		Seed: 1, Policy: core.TPP(), Workload: rp, Topology: tier.PresetCXL(2, 1), Minutes: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if !res.Failed {
		t.Fatalf("truncated-trace run reported success: %s", res.String())
	}
	if !strings.Contains(res.FailReason, "workload error") {
		t.Fatalf("unexpected fail reason %q", res.FailReason)
	}
	if rp.Err() == nil {
		t.Fatal("replayer reported no error")
	}
	// The diagnostic must locate the damage: mid-stream truncation names
	// the byte offset and tick it tripped on.
	if msg := rp.Err().Error(); !strings.Contains(msg, "byte offset ") || !strings.Contains(msg, "tick ") {
		t.Errorf("truncation error %q does not name byte offset and tick", msg)
	}
}

// TestGeneratorsTinyWorkingSet guards the percentage-sizing edge: every
// generator must produce a valid trace even when regions round to zero
// pages.
func TestGeneratorsTinyWorkingSet(t *testing.T) {
	cfg := trace.GenConfig{Pages: 3, Minutes: 1, AccessesPerTick: 20, Seed: 2}
	for name, tr := range map[string]*trace.Trace{
		"PhaseShift": trace.PhaseShift(cfg),
		"SeqScan":    trace.SequentialScan(cfg),
		"AdvChurn":   trace.AdversarialChurn(cfg),
	} {
		rp := tr.Replayer(trace.ReplayOptions{Loop: true})
		m, err := sim.New(sim.Config{
			Seed: 1, Policy: core.TPP(), Workload: rp,
			Topology: tier.PresetCXL(2, 1), Minutes: 2, AccessesPerTick: 20,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res := m.Run(); res.Failed {
			t.Fatalf("%s: %s", name, res.FailReason)
		}
	}
}

// TestCatalogTraceEntries runs each generator-backed catalog entry
// briefly under TPP.
func TestCatalogTraceEntries(t *testing.T) {
	for _, name := range []string{"PhaseShift", "SeqScan", "AdvChurn"} {
		ctor, ok := workload.Catalog[name]
		if !ok {
			t.Fatalf("catalog missing %s", name)
		}
		wl := ctor(2048)
		m, err := sim.New(sim.Config{
			Seed: 1, Policy: core.TPP(), Workload: wl,
			Topology: tier.PresetCXL(2, 1), Minutes: 3, AccessesPerTick: 200,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res := m.Run()
		if res.Failed {
			t.Fatalf("%s: %s", name, res.FailReason)
		}
		if res.Workload != name {
			t.Fatalf("%s: workload name %q", name, res.Workload)
		}
	}
}

// TestReplayIgnoresTickEndPayload pins that the per-node TickEnd
// payload is observability, not replay input: the recorded stream with
// every TickEnd's deltas and levels stripped replays to the same
// scalars and vmstat as the full stream, and both reproduce the
// recording machine's counters.
func TestReplayIgnoresTickEndPayload(t *testing.T) {
	m, tr := recordRun(t, t.TempDir())

	var buf bytes.Buffer
	w := trace.NewWriter(&buf, tr.Header)
	r := tr.Events()
	for {
		e, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if e.Op == trace.OpTickEnd {
			e = trace.Event{Op: trace.OpTickEnd}
		}
		w.WriteEvent(e)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	bare, err := trace.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if bare.Size() >= tr.Size() {
		t.Errorf("payload-free stream (%d B) not smaller than the full one (%d B)", bare.Size(), tr.Size())
	}

	run := func(tr *trace.Trace) (string, vmstat.Snapshot) {
		rm, err := sim.New(sim.Config{
			Seed:     11,
			Policy:   core.TPP(),
			Workload: tr.Replayer(trace.ReplayOptions{}),
			Topology: tier.PresetCXL(2, 1),
			Minutes:  5,
		})
		if err != nil {
			t.Fatal(err)
		}
		res := rm.Run()
		if res.Failed {
			t.Fatal(res.FailReason)
		}
		return strconv.FormatFloat(res.NormalizedThroughput, 'g', -1, 64) + "/" +
			strconv.FormatFloat(res.AvgLatencyNs, 'g', -1, 64), rm.Stat().Snapshot()
	}
	fullScalars, fullStat := run(tr)
	bareScalars, bareStat := run(bare)
	if bareScalars != fullScalars {
		t.Errorf("payload-free replay scalars %s != full replay scalars %s", bareScalars, fullScalars)
	}
	if bareStat != fullStat {
		t.Errorf("payload-free replay vmstat diverges from the full replay:\n got:\n%s want:\n%s", bareStat.String(), fullStat.String())
	}
	if want := m.Stat().Snapshot(); fullStat != want {
		t.Errorf("replay vmstat diverges from the recording:\n got:\n%s want:\n%s", fullStat.String(), want.String())
	}
}
