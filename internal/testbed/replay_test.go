package testbed

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// TestGoldenDigestDeterminism: two same-seed chaos runs must end in
// bit-identical component state — the combined digest and every
// per-component digest match. This is the strongest determinism check the
// repo has: it covers engine, RNG, every device model, transport, hostCC
// and the fault injector, not just the reported metrics.
func TestGoldenDigestDeterminism(t *testing.T) {
	scenarios := ChaosScenarios()
	if testing.Short() {
		scenarios = scenarios[:2]
	}
	for _, sc := range scenarios {
		t.Run(sc, func(t *testing.T) {
			run := func() ChaosResult {
				r, err := RunChaos(ChaosConfig{Scenario: sc, Seed: 13})
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			a, b := run(), run()
			if a.Digest == 0 {
				t.Fatal("final digest was never computed")
			}
			if a.Digest != b.Digest {
				if !reflect.DeepEqual(a.ComponentDigests, b.ComponentDigests) {
					for i := range a.ComponentDigests {
						if a.ComponentDigests[i] != b.ComponentDigests[i] {
							t.Fatalf("component %q digest diverged between same-seed runs: %#x vs %#x",
								a.ComponentDigests[i].Component, a.ComponentDigests[i].Hash, b.ComponentDigests[i].Hash)
						}
					}
				}
				t.Fatalf("combined digest diverged between same-seed runs: %#x vs %#x", a.Digest, b.Digest)
			}
		})
	}
}

// TestReplayFidelity: a run that wrote a checkpoint must replay to the
// same digest timeline and the same final state. Covers 3 seeds × 2 fault
// scenarios per the acceptance bar (1 × 1 in -short mode).
func TestReplayFidelity(t *testing.T) {
	seeds := []int64{7, 19, 101}
	// trunk-flap exercises checkpoint/resume of a multi-switch (leaf–
	// spine) testbed: the topology round-trips through checkpoint meta.
	scenarios := []string{"credit-stall", "link-flap", "trunk-flap"}
	if testing.Short() {
		seeds, scenarios = seeds[:1], scenarios[:1]
	}
	for _, sc := range scenarios {
		for _, seed := range seeds {
			t.Run(sc+"/"+string(rune('0'+seed%10)), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "run.ckpt")
				cfg := ChaosConfig{
					Scenario:        sc,
					Seed:            seed,
					DigestEvery:     500 * sim.Microsecond,
					CheckpointEvery: 100_000,
					CheckpointPath:  path,
				}
				orig, err := RunChaos(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if orig.Checkpoints == 0 {
					t.Fatal("no checkpoint written — lower CheckpointEvery")
				}
				if orig.Frames == 0 {
					t.Fatal("no digest frames recorded")
				}
				rep, err := ResumeChaos(path)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Verified {
					t.Fatalf("replay diverged from checkpoint: %v", rep.Divergence)
				}
				if rep.FramesChecked == 0 {
					t.Fatal("replay verified zero frames")
				}
				if rep.Result.Digest != orig.Digest {
					t.Fatalf("replayed final digest %#x != original %#x", rep.Result.Digest, orig.Digest)
				}
				if rep.Result.FinalGbps != orig.FinalGbps || rep.Result.Recovered != orig.Recovered {
					t.Fatalf("replayed metrics differ: %+v vs %+v", rep.Result, orig)
				}
			})
		}
	}
}

// TestSentinelCreditStallDeadlock: a PCIe credit-stall that never clears
// must be caught by the sentinel within bounded virtual time, classified
// as a deadlock with the credit loop named, and leave a loadable
// diagnostic snapshot behind.
func TestSentinelCreditStallDeadlock(t *testing.T) {
	const faultAt = 6 * sim.Millisecond
	const window = 500 * sim.Microsecond
	p := faults.Plan{Name: "wedge", Injections: []faults.Injection{
		// 50 ms stall: never clears within the run, so without the
		// sentinel the fault phase would grind through 50 ms of wedged
		// virtual time and "recover" only because the window ends.
		faults.OneShot(faults.PCIeStall, faultAt, 50*sim.Millisecond),
	}}
	snapPath := filepath.Join(t.TempDir(), "stall.ckpt")
	r, err := RunChaos(ChaosConfig{
		Plan:            &p,
		Seed:            7,
		FaultAt:         faultAt,
		FaultFor:        50 * sim.Millisecond,
		SentinelWindow:  window,
		SentinelPolicy:  sim.SentinelAbort,
		SnapshotOnStall: snapPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stall == nil {
		t.Fatal("sentinel never detected the wedged datapath")
	}
	// Bounded detection: the stall forms shortly after the fault opens and
	// must be declared within the window plus a few check periods.
	latest := faultAt + 3*window
	if r.Stall.DetectedAt > latest {
		t.Fatalf("stall detected at %v, want <= %v", r.Stall.DetectedAt, latest)
	}
	if r.Stall.Class != sim.StallDeadlock {
		t.Fatalf("classified %v, want deadlock\n%s", r.Stall.Class, r.Stall.Diagnostic)
	}
	want := []string{"pcie-credits", "iio-release"}
	if !reflect.DeepEqual(r.Stall.Cycle, want) {
		t.Fatalf("cycle = %v, want %v\n%s", r.Stall.Cycle, want, r.Stall.Diagnostic)
	}
	if !strings.Contains(r.Stall.Diagnostic, "WEDGED") {
		t.Fatalf("diagnostic does not render wedged nodes:\n%s", r.Stall.Diagnostic)
	}

	// The diagnostic snapshot must load and decompose into the full
	// component set for offline inspection.
	ck, err := snapshot.ReadFile(r.StallSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	order, blobs, err := snapshot.DecodeState(ck.State)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"engine", "rx/nic", "rx/pcie", "hostcc", "faults"} {
		if _, ok := blobs[name]; !ok {
			t.Fatalf("snapshot missing component %q (have %d components)", name, len(order))
		}
	}
	// A custom plan is not resumable; the error must say so rather than
	// replaying the wrong scenario.
	if _, err := ResumeChaos(r.StallSnapshot); err == nil || !strings.Contains(err.Error(), "custom") {
		t.Fatalf("resume of custom-plan snapshot: err = %v, want custom-plan rejection", err)
	}
}

// TestSentinelEscapeReclaimsCredits: under the escape policy, the same
// wedge is broken by force-reclaiming sequestered credits and the run
// keeps going (PFC-watchdog-style credit-timeout escape).
func TestSentinelEscapeReclaimsCredits(t *testing.T) {
	const faultAt = 6 * sim.Millisecond
	p := faults.Plan{Name: "wedge", Injections: []faults.Injection{
		faults.OneShot(faults.PCIeStall, faultAt, 2*sim.Millisecond),
	}}
	r, err := RunChaos(ChaosConfig{
		Plan:           &p,
		Seed:           7,
		FaultAt:        faultAt,
		FaultFor:       2 * sim.Millisecond,
		SentinelWindow: 500 * sim.Microsecond,
		SentinelPolicy: sim.SentinelEscape,
		// A 2 ms wedge costs more than the default 50-RTT budget to climb
		// back from; the point here is that the run survives and recovers
		// at all, not how fast.
		RecoveryRTTBudget: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stall == nil {
		t.Fatal("sentinel never detected the wedge")
	}
	if !r.Stall.Escaped {
		t.Fatal("escape policy did not reclaim anything")
	}
	if len(r.Violations) != 0 {
		t.Fatalf("forced reclaim broke credit accounting: %v", r.Violations)
	}
	if !r.Recovered {
		t.Fatalf("did not recover after escape: %s", r)
	}
}

// TestDivergenceDetectorPinpointsComponent: two different-seed runs must
// diverge, and FirstDivergence must name the first component (in datapath
// order) whose state digest differs — the "which counter went wrong
// first" answer the tentpole promises.
func TestDivergenceDetectorPinpointsComponent(t *testing.T) {
	run := func(seed int64) *snapshot.Timeline {
		_, tl, err := runChaos(ChaosConfig{
			Scenario:    "credit-stall",
			Seed:        seed,
			DigestEvery: 500 * sim.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tl
	}
	a, b := run(1), run(2)
	div, found := snapshot.FirstDivergence(a, b)
	if !found {
		t.Fatal("different seeds produced identical digest timelines")
	}
	if div.Component == "" || div.Component == "(frame shape)" {
		t.Fatalf("divergence did not name a component: %+v", div)
	}
	if div.AHash == div.BHash {
		t.Fatalf("divergence reports equal hashes: %+v", div)
	}
	if !strings.Contains(div.String(), "diverged at t=") {
		t.Fatalf("unexpected rendering: %s", div)
	}
	// Same seed, same recording config: no divergence.
	if d, found := snapshot.FirstDivergence(run(1), run(1)); found {
		t.Fatalf("same-seed timelines diverged: %s", d)
	}
}

// TestCheckpointResumeErrors: unreadable and meta-less files fail loudly.
func TestCheckpointResumeErrors(t *testing.T) {
	if _, err := ResumeChaos(filepath.Join(t.TempDir(), "absent.ckpt")); err == nil {
		t.Fatal("resume of missing file did not error")
	}
	bad := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := os.WriteFile(bad, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeChaos(bad); err == nil {
		t.Fatal("resume of corrupt file did not error")
	}
}

// TestChaosCheckpointWriteError: a checkpoint that cannot be written is
// the run's error, naming the path — both the periodic CheckpointPath and
// the sentinel's SnapshotOnStall — rather than a run that reports zero
// checkpoints and no error.
func TestChaosCheckpointWriteError(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "missing")
	wedge := faults.Plan{Name: "wedge", Injections: []faults.Injection{
		faults.OneShot(faults.PCIeStall, 6*sim.Millisecond, 50*sim.Millisecond),
	}}
	for _, c := range []struct {
		path string
		cfg  ChaosConfig
	}{
		{filepath.Join(dir, "run.ckpt"), ChaosConfig{Scenario: "credit-stall", Seed: 7, CheckpointEvery: 100_000}},
		{filepath.Join(dir, "stall.ckpt"), ChaosConfig{
			Plan: &wedge, Seed: 7, FaultFor: 50 * sim.Millisecond,
			SentinelWindow: 500 * sim.Microsecond, SentinelPolicy: sim.SentinelAbort,
		}},
	} {
		if c.cfg.CheckpointEvery > 0 {
			c.cfg.CheckpointPath = c.path
		} else {
			c.cfg.SnapshotOnStall = c.path
		}
		r, err := RunChaos(c.cfg)
		if err == nil || !strings.Contains(err.Error(), c.path) {
			t.Errorf("%s: err = %v, want a write error naming the path", filepath.Base(c.path), err)
		}
		if r.Checkpoints != 0 || r.StallSnapshot != "" {
			t.Errorf("%s: reports %d checkpoints, stall snapshot %q; no file was written",
				filepath.Base(c.path), r.Checkpoints, r.StallSnapshot)
		}
	}
}

// TestResumeChaosRequiresFullReplay: a replay that reproduces only a
// prefix of the recorded timeline is not verified. The checkpoint is
// tampered with 500 frames past the end of the run; the replay matches
// every frame it records, yet never reaches the appended ones.
func TestResumeChaosRequiresFullReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if _, err := RunChaos(ChaosConfig{
		Scenario: "credit-stall", Seed: 7,
		CheckpointEvery: 100_000, CheckpointPath: path,
	}); err != nil {
		t.Fatal(err)
	}
	ck, err := snapshot.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recorded := len(ck.Timeline.Frames)
	last := ck.Timeline.Frames[recorded-1]
	for i := 1; i <= 500; i++ {
		f := last
		f.At += int64(i) * int64(500*sim.Microsecond)
		ck.Timeline.Append(f)
	}
	if err := ck.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	rep, err := ResumeChaos(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verified {
		t.Fatalf("verified a replay that checked %d of %d recorded frames", rep.FramesChecked, len(ck.Timeline.Frames))
	}
	if rep.FramesChecked < recorded || rep.FramesChecked >= len(ck.Timeline.Frames) {
		t.Fatalf("checked %d frames; want the replay's own %d-plus, short of %d", rep.FramesChecked, recorded, len(ck.Timeline.Frames))
	}
	if rep.Divergence == nil || rep.Divergence.Component != "(replay ended)" || rep.Divergence.FrameIndex != rep.FramesChecked {
		t.Fatalf("divergence = %v, want (replay ended) at frame %d", rep.Divergence, rep.FramesChecked)
	}
}
