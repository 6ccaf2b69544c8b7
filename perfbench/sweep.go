package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// repRun is one sweep repetition as the parent saw it.
type repRun struct {
	res     repResult
	setup   time.Duration
	rssMiB  float64
	results time.Duration // median re-read and render of the shard
	sha     string
	failed  int
}

// spawnRep runs one repetition in a child process and checks its output:
// the report, the shard re-read through sink.ReadRecords, and the records'
// indices and seeds. The shard is removed once checked.
func (r *runCtx) spawnRep(name string, workers int, traced bool) (repRun, error) {
	var rr repRun
	out := filepath.Join(r.dir, name+".jsonl")
	args := []string{"child", "-workload", r.w.name, "-seed", strconv.FormatInt(r.seed, 10),
		"-workers", strconv.Itoa(workers), "-out", out}
	if traced {
		args = append(args, "-traced", "-trace-out", r.tracePath())
	}
	start := time.Now()
	cmd := exec.CommandContext(r.ctx, r.self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return rr, err
	}
	if err := cmd.Start(); err != nil {
		return rr, err
	}
	sc := bufio.NewScanner(stdout)
	var lines []string
	for sc.Scan() {
		if len(lines) == 0 && sc.Text() == readyLine {
			rr.setup = time.Since(start)
		}
		lines = append(lines, sc.Text())
	}
	if err := cmd.Wait(); err != nil {
		return rr, fmt.Errorf("repetition %s: %w", name, err)
	}
	if rr.setup == 0 || len(lines) < 2 {
		return rr, fmt.Errorf("repetition %s: child output %q", name, lines)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rr.res); err != nil {
		return rr, fmt.Errorf("repetition %s: %w", name, err)
	}
	rr.rssMiB = float64(rr.res.PeakRSSKiB) / 1024
	defer removeShard(out)
	spec := r.w.sweep(r.seed, workers)
	if err := checkReport(rr.res.Status, rr.res.Planned, rr.res.Salvaged, rr.res.Executed, spec.Trials); err != nil {
		return rr, fmt.Errorf("repetition %s: %w", name, err)
	}
	run, err := renderShard(out)
	if err != nil {
		return rr, fmt.Errorf("repetition %s: %w", name, err)
	}
	if rr.results, err = timeResults(out); err != nil {
		return rr, fmt.Errorf("repetition %s: %w", name, err)
	}
	if len(run.Order) != 1 {
		return rr, fmt.Errorf("repetition %s: shard holds groups %v, want only trials", name, run.Order)
	}
	if rr.failed, err = checkTrialRecords(run.Groups["trials"], spec.Trials, r.seed); err != nil {
		return rr, fmt.Errorf("repetition %s: %w", name, err)
	}
	rr.sha, err = fileSHA256(out)
	return rr, err
}

// minResultsTime is how long a repetition spends re-reading its shard for
// results_p50_ms: a small shard is read several times and the median taken.
const minResultsTime = 250 * time.Millisecond

// timeResults times renderShard on a shard until minResultsTime is spent
// (at least once) and returns the median read.
func timeResults(path string) (time.Duration, error) {
	var reads []float64
	var spent time.Duration
	for len(reads) == 0 || spent < minResultsTime {
		start := time.Now()
		if _, err := renderShard(path); err != nil {
			return 0, err
		}
		d := time.Since(start)
		spent += d
		reads = append(reads, float64(d))
	}
	return time.Duration(median(reads)), nil
}

// runSweep measures a sweep workload: repetitions, each in its own process,
// until the run's time is used (at least three), then a workers=1
// repetition as the determinism reference.
func (r *runCtx) runSweep(t *tally) error {
	workers := runtime.NumCPU()
	if r.trace {
		return r.runSweepTraced(t, workers)
	}
	var reps []repRun
	for i := 0; i < 3 || time.Now().Before(r.deadline); i++ {
		rr, err := r.spawnRep(fmt.Sprintf("rep%d", i), workers, false)
		t.attempted += rr.res.Planned
		if err != nil {
			t.fail("%v", err)
			t.failed += rr.res.Planned
			continue
		}
		t.failed += rr.failed
		if rr.failed > 0 {
			t.fail("repetition %d: %d trial(s) quarantined or violating consensus", i, rr.failed)
		}
		reps = append(reps, rr)
	}
	if len(reps) == 0 {
		return nil
	}
	ref, err := r.spawnRep("workers1", 1, false)
	if err != nil {
		t.fail("workers=1 reference: %v", err)
	}
	for i, rr := range reps {
		if rr.sha != reps[0].sha || (err == nil && rr.sha != ref.sha) {
			t.fail("determinism: repetition %d shard sha256 %s, repetition 0 %s, workers=1 %s", i, rr.sha, reps[0].sha, ref.sha)
		}
	}
	t.note("repetitions=%d (one jobs.Execute each, in its own process); job latency = jobs.Execute wall time; shard sha256 %s", len(reps), reps[0].sha)
	for i, rr := range reps {
		t.note("repetition %d: %.0f trials/s, peak RSS %.1f MiB, set-up %.2f ms, results %.0f ms",
			i, float64(rr.res.Executed)/(float64(rr.res.WallNs)/1e9), rr.rssMiB, ms(rr.setup), ms(rr.results))
	}
	for k, v := range sweepMetrics(reps) {
		t.set(k, v)
	}
	return nil
}

// sweepMetrics folds the repetitions into the end-to-end metrics: medians
// across repetitions, with each ratio taken per repetition over its own
// base (executed trials, or the jobs.Execute wall time).
func sweepMetrics(reps []repRun) map[string]float64 {
	var tps, allocs, bytes, rss, setup, lat, results []float64
	var wallSum float64
	for _, rr := range reps {
		wall := float64(rr.res.WallNs) / 1e9
		n := float64(rr.res.Executed)
		tps = append(tps, n/wall)
		allocs = append(allocs, float64(rr.res.Mallocs)/n)
		bytes = append(bytes, float64(rr.res.TotalAlloc)/n)
		rss = append(rss, rr.rssMiB)
		setup = append(setup, rr.setup.Seconds())
		lat = append(lat, wall*1e3)
		results = append(results, ms(rr.results))
		wallSum += wall
	}
	return map[string]float64{
		"trials_per_s":          median(tps),
		"allocs_per_trial":      median(allocs),
		"alloc_bytes_per_trial": median(bytes),
		"peak_rss_mb":           median(rss),
		"setup_s":               median(setup),
		"jobs_per_s":            float64(len(reps)) / wallSum,
		"job_latency_p50_ms":    median(lat),
		"job_latency_p90_ms":    percentile(lat, 90),
		"results_p50_ms":        median(results),
	}
}

// runSweepTraced alternates untraced and traced repetitions of the same
// spec and seed, requires their shards to be byte-identical, and runs the
// spec once as a sweepd job for the daemon layer's numbers.
func (r *runCtx) runSweepTraced(t *tally, workers int) error {
	var plainTPS, tracedTPS, highwater []float64
	var sha string
	layers := map[string][]float64{}
	for i := 0; i < 1 || time.Now().Before(r.deadline); i++ {
		plain, err := r.spawnRep(fmt.Sprintf("plain%d", i), workers, false)
		t.attempted += plain.res.Planned
		if err != nil {
			t.fail("%v", err)
			t.failed += plain.res.Planned
			continue
		}
		traced, err := r.spawnRep(fmt.Sprintf("traced%d", i), workers, true)
		if err != nil {
			t.fail("%v", err)
			continue
		}
		if traced.sha != plain.sha {
			t.fail("traced shard sha256 %s differs from untraced %s", traced.sha, plain.sha)
		}
		t.failed += plain.failed
		if plain.failed > 0 {
			t.fail("repetition %d: %d trial(s) quarantined or violating consensus", i, plain.failed)
		}
		plainTPS = append(plainTPS, float64(plain.res.Executed)/(float64(plain.res.WallNs)/1e9))
		tracedTPS = append(tracedTPS, float64(traced.res.Executed)/(float64(traced.res.WallNs)/1e9))
		highwater = append(highwater, float64(plain.res.ReorderHighWater))
		for k, v := range traced.res.Layers {
			layers[k] = append(layers[k], v)
		}
		sha = plain.sha
	}
	if len(plainTPS) == 0 {
		return nil
	}
	for k, vs := range layers {
		t.set(k, median(vs))
	}
	t.set("sim.reorder_highwater", median(highwater))
	t.set("trace.overhead_trials_per_s", median(tracedTPS)-median(plainTPS))
	t.note("traced pairs=%d; untraced %.0f trials/s, traced %.0f trials/s", len(plainTPS), median(plainTPS), median(tracedTPS))

	return r.daemonJob(t, r.w.sweep(r.seed, workers), sha)
}
