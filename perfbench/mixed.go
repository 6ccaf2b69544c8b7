package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"adhocconsensus/internal/jobs"
	"adhocconsensus/internal/replay"
	"adhocconsensus/internal/telemetry"
)

// A run drives the closed loop through fresh daemons, one after another,
// each serving jobsPerDaemon jobs, until the run's time is used (at least
// minDaemons); peak memory and start-up time are medians over them. A fixed
// job count per daemon keeps its peak memory independent of host speed:
// the daemon keeps every job's status and report, so its memory grows with
// the jobs it has served.
const (
	jobsPerDaemon = 40
	minDaemons    = 3 // minDaemons*jobsPerDaemon >= samplesFor(90)
)

// quietFetches is how many times each exps job's results are fetched from
// the idle daemon after its loop, for results_p50_ms.
const quietFetches = 3

// daemonRep is what one daemon process served.
type daemonRep struct {
	samples []jobSample
	// quiet holds GET /jobs/{id}/results round trips for the exps jobs,
	// fetched one at a time once the loop has stopped.
	quiet                []time.Duration
	wall                 time.Duration
	mallocs, bytes       uint64
	rssMiB               float64
	counters0, counters1 map[string]float64
}

// runDaemon measures daemon-mixed: sweepd as a subprocess driven as a
// closed loop by min(2, nproc) clients, each submitting a job, waiting for
// Done and fetching its results before submitting the next. Latency
// samples are pooled over the run's daemons.
func (r *runCtx) runDaemon(t *tally) error {
	var setups []float64
	var tr *tracer // nil unless the run is traced
	if r.trace {
		tr = newTracer()
	}
	var reps []daemonRep
	for i := 0; i < minDaemons || time.Now().Before(r.deadline); i++ {
		setup, rep, err := r.serveLoop(filepath.Join(r.dir, fmt.Sprintf("daemon%d", i)), tr)
		if err != nil {
			return err
		}
		setups = append(setups, setup.Seconds())
		reps = append(reps, rep)
	}

	// Output checks: every job done with exit 0, every exps job's tables
	// PASS, and every shard identical to the same spec run in-process
	// through jobs.Execute.
	refs, err := r.references(t)
	if err != nil {
		return err
	}
	var all []jobSample
	var quiet []float64
	var trials, done int
	var wall time.Duration
	var mallocs, bytes uint64
	var rss []float64
	for _, rep := range reps {
		for _, js := range rep.samples {
			t.attempted++
			err := checkJob(js)
			if err == nil {
				var sha string
				if sha, err = fileSHA256(js.out); err == nil && sha != refs[js.kind].sha {
					err = fmt.Errorf("job %s shard sha256 %s, in-process jobs.Execute %s", js.out, sha, refs[js.kind].sha)
				}
			}
			if err != nil {
				t.failed++
				t.fail("%v", err)
				continue
			}
			done++
			trials += js.executed
		}
		for _, q := range rep.quiet {
			quiet = append(quiet, ms(q))
		}
		all = append(all, rep.samples...)
		wall += rep.wall
		mallocs += rep.mallocs
		bytes += rep.bytes
		rss = append(rss, rep.rssMiB)
	}
	for i, rep := range reps {
		t.note("daemon %d: %d jobs, peak RSS %.1f MiB", i, len(rep.samples), rep.rssMiB)
	}
	t.note("daemon jobs=%d over %d daemons (%d clients, closed loop, kinds cycle %v); Done detected by polling GET /jobs/{id} every %v",
		len(all), len(reps), r.clients(), daemonCycle, pollEvery)
	for _, kind := range daemonCycle {
		var lat []float64
		for _, js := range all {
			if js.kind == kind {
				lat = append(lat, ms(js.latency))
			}
		}
		t.note("%s jobs: %d, latency p50 %.1f ms, p90 %.1f ms", kind, len(lat), median(lat), percentile(lat, 90))
	}
	if r.trace {
		setDaemonLayers(t, all, reps)
		return r.daemonInProcessLayers(t, tr, all, refs)
	}
	if len(all) < samplesFor(90) {
		t.fail("only %d job latency samples; p90 needs %d", len(all), samplesFor(90))
	}
	if trials == 0 || len(quiet) == 0 {
		t.fail("no trials executed or no exps results fetched")
		return nil
	}
	for k, v := range loopMetrics(all, wall, trials, done, mallocs, bytes) {
		t.set(k, v)
	}
	t.set("results_p50_ms", median(quiet))
	t.set("peak_rss_mb", median(rss))
	t.set("setup_s", median(setups))
	return nil
}

// reference is a daemon-mixed job kind run in this process through
// jobs.Execute: the output every daemon job of that kind must equal, and
// the untraced baseline of the traced reproduction.
type reference struct {
	sha      string
	wall     time.Duration
	executed int
}

// references runs each job kind in-process, in the clients' order.
func (r *runCtx) references(t *tally) (map[string]reference, error) {
	refs := map[string]reference{}
	for _, kind := range daemonCycle {
		spec := daemonSpec(kind, r.seed, filepath.Join(r.dir, "ref-"+kind+".jsonl"))
		start := time.Now()
		rep, err := jobs.Execute(r.ctx, spec, io.Discard)
		wall := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("in-process %s reference: %w", kind, err)
		}
		sha, err := fileSHA256(spec.Out)
		if err != nil {
			return nil, err
		}
		refs[kind] = reference{sha: sha, wall: wall, executed: rep.Trials.Executed}
		if kind == kindTrials {
			recs, err := readTrials(spec.Out)
			if err != nil {
				return nil, err
			}
			if failed, err := checkTrialRecords(recs, spec.Trials, r.seed); err != nil || failed > 0 {
				t.fail("in-process trials reference: %d failed trial(s), %v", failed, err)
			}
		}
	}
	return refs, nil
}

// serveLoop starts a daemon, warms it up with one job of each kind, drives
// the closed loop through jobsPerDaemon jobs, fetches every exps job's
// results again on the idle daemon (quietFetches times), and stops it.
func (r *runCtx) serveLoop(dir string, tr *tracer) (time.Duration, daemonRep, error) {
	var rep daemonRep
	d, setup, err := startDaemon(r.ctx, r.sweepd, dir)
	if err != nil {
		return 0, rep, err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()
	for _, kind := range daemonCycle {
		if err := checkJob(d.runJob(daemonSpec(kind, r.seed, filepath.Join(dir, "warm-"+kind+".jsonl")), kind, nil)); err != nil {
			return 0, rep, fmt.Errorf("warm-up: %w", err)
		}
	}
	m0, b0, err := d.memStats()
	if err != nil {
		return 0, rep, err
	}
	if rep.counters0, err = d.counters(); err != nil {
		return 0, rep, err
	}
	rep.samples, rep.wall = r.closedLoop(d, dir, jobsPerDaemon, tr)
	m1, b1, err := d.memStats()
	if err != nil {
		return 0, rep, err
	}
	rep.mallocs, rep.bytes = m1-m0, b1-b0
	if rep.counters1, err = d.counters(); err != nil {
		return 0, rep, err
	}
	for range quietFetches {
		for _, js := range rep.samples {
			if js.kind == kindExps && js.err == nil {
				_, rtt, err := d.call("GET", "/jobs/"+strconv.FormatInt(js.id, 10)+"/results?quiet", nil)
				if err != nil {
					return 0, rep, err
				}
				rep.quiet = append(rep.quiet, rtt)
			}
		}
	}
	rep.rssMiB, err = d.stop()
	stopped = true
	return setup, rep, err
}

// loopMetrics folds the closed loops into their end-to-end metrics.
// Throughput counts only jobs that passed their checks (done of them,
// executing trials trials) over the loops' wall time; allocations are the
// daemons' heap counter deltas over the loops per executed trial;
// latencies take every job.
func loopMetrics(samples []jobSample, wall time.Duration, trials, done int, mallocs, bytes uint64) map[string]float64 {
	var lat []float64
	for _, js := range samples {
		lat = append(lat, ms(js.latency))
	}
	return map[string]float64{
		"trials_per_s":          float64(trials) / wall.Seconds(),
		"allocs_per_trial":      float64(mallocs) / float64(trials),
		"alloc_bytes_per_trial": float64(bytes) / float64(trials),
		"jobs_per_s":            float64(done) / wall.Seconds(),
		"job_latency_p50_ms":    median(lat),
		"job_latency_p90_ms":    percentile(lat, 90),
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func (r *runCtx) clients() int { return min(2, runtime.NumCPU()) }

// closedLoop drives the daemon through n jobs. With tr non-nil, every
// client records spans.
func (r *runCtx) closedLoop(d *daemon, dir string, n int, tr *tracer) ([]jobSample, time.Duration) {
	var (
		mu      sync.Mutex
		samples []jobSample
		wg      sync.WaitGroup
		claimed atomic.Int64
	)
	start := time.Now()
	for c := 0; c < r.clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var b *spanBuf
			if tr != nil {
				b = tr.buf()
				defer b.flush()
			}
			for k := 0; r.ctx.Err() == nil && claimed.Add(1) <= int64(n); k++ {
				kind := daemonCycle[(k+c)%len(daemonCycle)]
				spec := daemonSpec(kind, r.seed, filepath.Join(dir, fmt.Sprintf("c%d-j%d.jsonl", c, k)))
				js := d.runJob(spec, kind, b)
				mu.Lock()
				samples = append(samples, js)
				mu.Unlock()
				if js.err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	return samples, time.Since(start)
}

// setDaemonLayers publishes the daemon layer's split of job latency and
// the counters its /metrics exposes, over the measured loops.
func setDaemonLayers(t *tally, samples []jobSample, reps []daemonRep) {
	var submit, status, wait, exec, other []float64
	for _, js := range samples {
		submit = append(submit, ms(js.submit))
		status = append(status, ms(js.statusMean))
		wait = append(wait, ms(js.queueWait))
		exec = append(exec, ms(js.exec))
		other = append(other, ms(js.latency-js.submit-js.queueWait-js.exec))
	}
	t.set("sweepd.submit_ms", median(submit))
	t.set("sweepd.status_ms", median(status))
	t.set("sweepd.queue_wait_ms", median(wait))
	t.set("sweepd.exec_ms", median(exec))
	t.set("sweepd.other_ms", median(other))
	var highwater float64
	for _, rep := range reps {
		highwater = max(highwater, rep.counters1["jobs.queue.highwater"])
	}
	t.set("jobs.queue_highwater", highwater)
	for _, k := range []string{"emitted", "persisted", "dropped"} {
		var n float64
		for _, rep := range reps {
			n += rep.counters1["events."+k] - rep.counters0["events."+k]
		}
		t.set("events."+k, n)
	}
}

// daemonJob runs one sweep spec as a sweepd job, for the daemon layer's
// metrics on a sweep workload, and checks its shard against wantSHA.
func (r *runCtx) daemonJob(t *tally, spec jobs.Spec, wantSHA string) error {
	dir := filepath.Join(r.dir, "daemon")
	d, _, err := startDaemon(r.ctx, r.sweepd, dir)
	if err != nil {
		return err
	}
	var rep daemonRep
	if rep.counters0, err = d.counters(); err != nil {
		d.kill()
		return err
	}
	spec.Out = filepath.Join(dir, "job.jsonl")
	js := d.runJob(spec, kindTrials, nil)
	rep.samples = []jobSample{js}
	if err := checkJob(js); err != nil {
		t.fail("%v", err)
	} else if sha, err := fileSHA256(js.out); err != nil || sha != wantSHA {
		t.fail("sweepd job shard sha256 %s (%v), jobs.Execute %s", sha, err, wantSHA)
	}
	removeShard(js.out)
	if rep.counters1, err = d.counters(); err != nil {
		d.kill()
		return err
	}
	if _, err := d.stop(); err != nil {
		return err
	}
	setDaemonLayers(t, rep.samples, []daemonRep{rep})
	return nil
}

// daemonInProcessLayers reproduces daemon-mixed's two job kinds in this
// process through the traced decomposition, for the layers below sweepd,
// and times the replay read path on one of the daemon's exps shards.
func (r *runCtx) daemonInProcessLayers(t *tally, tr *tracer, samples []jobSample, refs map[string]reference) error {
	var expsShard string
	for _, js := range samples {
		if js.kind == kindExps && js.err == nil {
			expsShard = js.out
			break
		}
	}
	if expsShard == "" {
		t.fail("no exps job finished")
		return nil
	}
	start := time.Now()
	run, err := replay.LoadFiles(expsShard)
	if err == nil {
		for _, name := range run.Order {
			if _, err = replay.RenderExperiment(name, run.Groups[name]); err != nil {
				break
			}
		}
	}
	if err != nil {
		return fmt.Errorf("replay render of %s: %w", expsShard, err)
	}
	t.set("replay.render_s", time.Since(start).Seconds())

	// The registry's reorder high-water is process-wide: here, over the
	// in-process reference runs of both job kinds.
	hw, _ := telemetry.Default().Snapshot()["sim.reorder.highwater"].(int64)
	t.set("sim.reorder_highwater", float64(hw))
	ref := refs[kindTrials]
	matAllocs, runAllocs, err := allocProbe(daemonSpec(kindTrials, r.seed, ""), 100)
	if err != nil {
		return err
	}

	lt := &layerTotals{}
	var tracedTrials time.Duration
	for _, kind := range daemonCycle {
		spec := daemonSpec(kind, r.seed, filepath.Join(r.dir, "traced-"+kind+".jsonl"))
		start := time.Now()
		if _, err := tracedExecute(r.ctx, tr, lt, spec); err != nil {
			return fmt.Errorf("traced %s job: %w", kind, err)
		}
		if kind == kindTrials {
			tracedTrials = time.Since(start)
		}
		if sha, err := fileSHA256(spec.Out); err != nil || sha != refs[kind].sha {
			t.fail("traced %s shard sha256 %s (%v), untraced %s", kind, sha, err, refs[kind].sha)
		}
	}
	layers, err := layerMetrics(tr.spans, lt, runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	for k, v := range layers {
		t.set(k, v)
	}
	t.set("sim.materialize_allocs", matAllocs)
	t.set("engine.allocs_per_run", runAllocs)
	n := float64(ref.executed)
	t.set("trace.overhead_trials_per_s", n/tracedTrials.Seconds()-n/ref.wall.Seconds())
	return writeTrace(r.tracePath(), tr.spans)
}
