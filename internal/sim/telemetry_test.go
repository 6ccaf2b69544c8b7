package sim

import (
	"context"
	"testing"
	"time"

	"adhocconsensus/internal/engine"
	"adhocconsensus/internal/model"
	"adhocconsensus/internal/telemetry"
)

// TestSweepTelemetryAddsNoAllocations measures the same sweep before and
// after telemetry.Enable in one process: the instrumented runner path must
// cost the same allocations with counters live as with the nil no-op sets.
// It must run before anything else in this package enables telemetry, which
// holds because no other sim test does.
func TestSweepTelemetryAddsNoAllocations(t *testing.T) {
	if telemetry.Enabled() {
		t.Skip("telemetry already enabled in this process; no disabled baseline")
	}
	if raceEnabled {
		t.Skip("allocation counts are noise under the race detector (sync.Pool drops puts)")
	}
	grid := quarantineGrid(-1) // all healthy
	sweep := func() {
		if _, err := (Runner{Workers: 1}).Sweep(grid); err != nil {
			t.Error(err)
		}
	}
	sweep() // warm engine pools
	before := testing.AllocsPerRun(10, sweep)
	telemetry.Enable()
	after := testing.AllocsPerRun(10, sweep)
	// The instrumentation performs only atomic ops on preallocated metrics;
	// the tolerance absorbs sync.Pool jitter in the engine underneath.
	if after > before+2 {
		t.Fatalf("sweep allocates %.0f/run with telemetry live vs %.0f disabled", after, before)
	}
}

// TestSweepTelemetryCounters checks the runner's published observables:
// trial and quarantine counts, wall-time and rounds-to-decide histogram
// population, and the reorder high-water mark.
func TestSweepTelemetryCounters(t *testing.T) {
	telemetry.Enable()
	tm := telemetry.Sim()
	trialsB := tm.Trials.Load()
	panicB := tm.QuarantinePanic.Load()
	wallB := tm.TrialWallNs.Count()
	decideB := tm.RoundsToDecide.Count()

	grid := quarantineGrid(2)
	if _, err := (Runner{Workers: 4}).Sweep(grid); err == nil {
		t.Fatal("bombed grid returned no TrialError")
	}
	if got := tm.Trials.Load() - trialsB; got != uint64(len(grid)) {
		t.Fatalf("sim.trials advanced %d, want %d", got, len(grid))
	}
	if got := tm.QuarantinePanic.Load() - panicB; got != 1 {
		t.Fatalf("sim.quarantine.panic advanced %d, want 1", got)
	}
	if got := tm.TrialWallNs.Count() - wallB; got != uint64(len(grid)) {
		t.Fatalf("sim.trial.wall_ns observed %d trials, want %d", got, len(grid))
	}
	// Every healthy trial decides; the bombed one does not.
	if got := tm.RoundsToDecide.Count() - decideB; got != uint64(len(grid)-1) {
		t.Fatalf("sim.trial.rounds_to_decide observed %d, want %d", got, len(grid)-1)
	}
	if tm.ReorderHighWater.Load() < 0 {
		t.Fatalf("reorder high-water negative: %d", tm.ReorderHighWater.Load())
	}
}

// TestDeadlineQuarantineCounter: an overrunning trial lands in the deadline
// cause counter, not panic or other.
func TestDeadlineQuarantineCounter(t *testing.T) {
	telemetry.Enable()
	tm := telemetry.Sim()
	deadlineB := tm.QuarantineDeadline.Load()
	s := Scenario{
		Name:      "telemetry/spin",
		Algorithm: AlgPropose,
		Values:    []model.Value{1, 2},
		Domain:    4,
		MaxRounds: 1 << 30,
		Trace:     engine.TraceDecisionsOnly,
		Seed:      1,
		BuildProc: func(int, *Scenario) model.Automaton { return spinProc{} },
	}
	r := Runner{Workers: 1, TrialTimeout: 10 * time.Millisecond}
	if _, err := r.Sweep([]Scenario{s}); err == nil {
		t.Fatal("spin trial did not overrun its deadline")
	}
	if got := tm.QuarantineDeadline.Load() - deadlineB; got != 1 {
		t.Fatalf("sim.quarantine.deadline advanced %d, want 1", got)
	}
}

// TestCanceledCounter: trials a cancellation skipped entirely are counted.
func TestCanceledCounter(t *testing.T) {
	telemetry.Enable()
	tm := telemetry.Sim()
	canceledB := tm.Canceled.Load()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // nothing will be claimed
	grid := quarantineGrid(-1)
	err := (Runner{Workers: 2}).SweepToCtx(ctx, grid, sliceSink(make([]Result, len(grid))))
	if err == nil {
		t.Fatal("canceled sweep returned nil")
	}
	if got := tm.Canceled.Load() - canceledB; got != uint64(len(grid)) {
		t.Fatalf("sim.trials.canceled advanced %d, want %d", got, len(grid))
	}
}

// TestGoroutineSweepBooksEngineRuns: a UseGoroutines scenario runs on the
// engine, so its trials book engine.runs and engine.rounds like any other —
// the run report of such a job counts its engine runs.
func TestGoroutineSweepBooksEngineRuns(t *testing.T) {
	telemetry.Enable()
	em := telemetry.Engine()
	runsB, roundsB, seqB := em.Runs.Load(), em.Rounds.Load(), em.RoundsSequential.Load()

	grid := quarantineGrid(-1)
	for i := range grid {
		grid[i].UseGoroutines = true
	}
	res, err := (Runner{Workers: 2}).Sweep(grid)
	if err != nil {
		t.Fatal(err)
	}
	rounds := uint64(0)
	for _, r := range res {
		rounds += uint64(r.Rounds)
	}
	if got := em.Runs.Load() - runsB; got != uint64(len(grid)) {
		t.Fatalf("engine.runs advanced %d, want %d", got, len(grid))
	}
	if got := em.Rounds.Load() - roundsB; got != rounds {
		t.Fatalf("engine.rounds advanced %d, want %d", got, rounds)
	}
	if got := em.RoundsSequential.Load() - seqB; got != rounds {
		t.Fatalf("engine.rounds.sequential advanced %d, want %d", got, rounds)
	}
}
