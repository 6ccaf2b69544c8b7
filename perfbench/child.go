package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"adhocconsensus/internal/engine"
	"adhocconsensus/internal/jobs"
	"adhocconsensus/internal/replay"
	"adhocconsensus/internal/telemetry"
)

// repResult is what a child process reports for one sweep repetition.
type repResult struct {
	WallNs     int64  `json:"wall_ns"`
	Mallocs    uint64 `json:"mallocs"`
	TotalAlloc uint64 `json:"total_alloc"`
	Status     string `json:"status"`
	Planned    int    `json:"planned"`
	Salvaged   int    `json:"salvaged"`
	Executed   int    `json:"executed"`
	// PeakRSSKiB is the process's own resident high-water mark (VmHWM)
	// right after the measured call.
	PeakRSSKiB int64 `json:"peak_rss_kib"`
	// ReorderHighWater is the sweep runner's sim.reorder.highwater from the
	// telemetry registry (untraced repetitions only).
	ReorderHighWater int64 `json:"reorder_highwater"`
	// Layers holds a traced repetition's per-layer metrics.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// readyLine is what a repetition child prints once it could run its first
// trial; the parent times set-up up to it.
const readyLine = "ready"

// childMain runs one sweep repetition in this process, so that its peak
// resident memory and first-use costs belong to that repetition alone.
func childMain(args []string) error {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	name := fs.String("workload", "", "sweep workload")
	seed := fs.Int64("seed", 1, "workload seed")
	workers := fs.Int("workers", runtime.NumCPU(), "trial workers")
	out := fs.String("out", "", "shard path of the measured run (must not exist)")
	traced := fs.Bool("traced", false, "run the traced decomposition instead of jobs.Execute")
	tracePath := fs.String("trace-out", "", "where a traced run writes its spans")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloadByName(*name)
	if !ok || w.sweep == nil {
		return fmt.Errorf("no sweep workload %q", *name)
	}
	spec := w.sweep(*seed, *workers)
	spec.Out = *out

	// Set-up: everything before the first trial can run.
	setup := spec
	setup.Out = *out + ".setup"
	segs, err := jobs.BuildSegments(setup)
	if err != nil {
		return err
	}
	f, err := jobs.Salvage(setup.Out, segs, make([]int, len(segs)), io.Discard)
	if err != nil {
		return err
	}
	f.Close()
	if err := os.Remove(setup.Out); err != nil {
		return err
	}
	engine.Calibrate()
	fmt.Println(readyLine)

	// Warm-up: first-use pools and lazy initialisation, outside the
	// measured region.
	warm := spec
	warm.Trials = w.warmTrials
	warm.Out = *out + ".warm"
	if _, err := jobs.Execute(context.Background(), warm, io.Discard); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	removeShard(warm.Out)

	var res repResult
	if *traced {
		res, err = tracedRep(w, spec, *tracePath)
	} else {
		res, err = timedRep(spec)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// timedRep measures one jobs.Execute call: wall time and the heap
// allocation counters around exactly that call.
func timedRep(spec jobs.Spec) (repResult, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	rep, err := jobs.Execute(context.Background(), spec, io.Discard)
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return repResult{}, err
	}
	rss, err := peakRSSKiB("self")
	if err != nil {
		return repResult{}, err
	}
	hw, _ := telemetry.Default().Snapshot()["sim.reorder.highwater"].(int64)
	return repResult{
		WallNs:           wall.Nanoseconds(),
		Mallocs:          m1.Mallocs - m0.Mallocs,
		TotalAlloc:       m1.TotalAlloc - m0.TotalAlloc,
		Status:           rep.Status,
		Planned:          rep.Trials.Planned,
		Salvaged:         rep.Trials.Salvaged,
		Executed:         rep.Trials.Executed,
		PeakRSSKiB:       rss,
		ReorderHighWater: hw,
	}, nil
}

// tracedRep runs the same spec through the traced decomposition and
// derives the per-layer metrics from its spans and counts.
func tracedRep(w workload, spec jobs.Spec, tracePath string) (repResult, error) {
	matAllocs, runAllocs, err := allocProbe(spec, w.probeTrials)
	if err != nil {
		return repResult{}, fmt.Errorf("alloc probe: %w", err)
	}
	runtime.GC()
	tr := newTracer()
	lt := &layerTotals{}
	start := time.Now()
	rep, err := tracedExecute(context.Background(), tr, lt, spec)
	wall := time.Since(start)
	if err != nil {
		return repResult{}, err
	}
	renderStart := time.Now()
	if _, err := renderShard(spec.Out); err != nil {
		return repResult{}, err
	}
	render := time.Since(renderStart)
	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	layers, err := layerMetrics(tr.spans, lt, workers)
	if err != nil {
		return repResult{}, err
	}
	layers["sim.materialize_allocs"] = matAllocs
	layers["engine.allocs_per_run"] = runAllocs
	layers["replay.render_s"] = render.Seconds()
	if tracePath != "" {
		if err := writeTrace(tracePath, tr.spans); err != nil {
			return repResult{}, err
		}
	}
	return repResult{
		WallNs:   wall.Nanoseconds(),
		Status:   rep.Status,
		Planned:  rep.Trials.Planned,
		Salvaged: rep.Trials.Salvaged,
		Executed: rep.Trials.Executed,
		Layers:   layers,
	}, nil
}

// layerMetrics folds a traced run's spans and counts into the per-layer
// metrics that live in this process.
func layerMetrics(spans []span, lt *layerTotals, workers int) (map[string]float64, error) {
	secs := func(ns int64) float64 { return float64(ns) / 1e9 }
	dur := func(s span) int64 { return s.dur() }
	self := selfTimes(spans)
	// Worker busy time is taken against the streams that ran per-trial
	// spans: other segments' trials are not reached from outside.
	trialStreams := map[int64]bool{}
	for _, s := range spans {
		if s.Name == "sim.trial" {
			trialStreams[s.Parent] = true
		}
	}
	var trialStreamNs int64
	for _, s := range spans {
		if trialStreams[s.ID] {
			trialStreamNs += s.dur()
		}
	}
	busy, err := ratio(float64(sumBy(spans, "sim.trial", dur)), float64(int64(workers)*trialStreamNs))
	if err != nil {
		return nil, fmt.Errorf("sim.worker_busy_frac: %w", err)
	}
	return map[string]float64{
		"jobs.build_s":          secs(sumBy(spans, "jobs.build", dur)),
		"jobs.salvage_s":        secs(sumBy(spans, "jobs.salvage", dur)),
		"jobs.stream_s":         secs(sumBy(spans, "jobs.stream", dur)),
		"jobs.report_s":         secs(sumBy(spans, "jobs.report", dur)),
		"sim.materialize_s":     secs(sumBy(spans, "sim.materialize", dur)),
		"sim.materialize_calls": float64(countOf(spans, "sim.materialize")),
		"sim.digest_s":          secs(sumBy(spans, "sim.digest", dur)),
		"sim.worker_busy_frac":  busy,
		"engine.run_s":          secs(sumBy(spans, "engine.run", dur)),
		"engine.self_s":         secs(sumBy(spans, "engine.run", func(s span) int64 { return self[s.ID] })),
		"engine.rounds":         float64(lt.rounds),
		"loss.plan_calls":       float64(lt.planCalls),
		"loss.plan_s":           secs(lt.planNs),
		"cm.advise_calls":       float64(lt.adviseCalls),
		"cm.advise_s":           secs(lt.adviseNs),
		"core.step_calls":       float64(lt.stepCalls),
		"core.step_s":           secs(lt.stepNs),
		"sink.records":          float64(lt.sinkRecords),
		"sink.bytes":            float64(lt.sinkBytes),
		"sink.encode_s":         secs(lt.encodeNs),
		"sink.write_calls":      float64(lt.writer.calls.Load()),
		"sink.write_s":          secs(lt.writer.ns.Load()),
		"sink.flush_s":          secs(lt.flushNs),
	}, nil
}

// renderShard is the results read path for a configuration sweep: the
// shard's records re-read through replay.LoadFiles (sink.ReadRecords) and
// folded into the trial statistics sweepd's /results prints.
func renderShard(path string) (*replay.Run, error) {
	run, err := replay.LoadFiles(path)
	if err != nil {
		return nil, err
	}
	if _, err := trialStats(run.Groups["trials"]); err != nil {
		return nil, err
	}
	return run, nil
}

// removeShard deletes a shard file and the files written next to it.
func removeShard(path string) {
	for _, p := range []string{path, path + ".report.json", path + ".events.jsonl"} {
		_ = os.Remove(p) // absent companions are fine
	}
}
