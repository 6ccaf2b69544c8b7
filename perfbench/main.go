// Command perfbench is the repository's benchmark: it runs one named
// workload through the system's public entry points — jobs.Execute for the
// sweeps, the sweepd HTTP API for the daemon — checks every output, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer metrics
// of a separate traced run) as the last line of standard output:
//
//	perfbench -workload sweep-small -seed 1 -seconds 20 -trace 0 -sweepd <sweepd binary>
//
// run.sh builds it and sweepd from source and passes the paths. Inputs
// derive from the seed only. Every repetition writes to a fresh output path
// under -workdir, which the run removes when it ends.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricDef names a metric and its unit, as BENCHMARK.json declares it.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"trials_per_s", "1/s"},
	{"allocs_per_trial", "count"},
	{"alloc_bytes_per_trial", "bytes"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"job_latency_p50_ms", "ms"},
	{"job_latency_p90_ms", "ms"},
	{"results_p50_ms", "ms"},
}

var perLayer = []metricDef{
	{"jobs.build_s", "s"},
	{"jobs.salvage_s", "s"},
	{"jobs.stream_s", "s"},
	{"jobs.report_s", "s"},
	{"sim.materialize_s", "s"},
	{"sim.materialize_calls", "count"},
	{"sim.materialize_allocs", "count"},
	{"sim.digest_s", "s"},
	{"sim.worker_busy_frac", "ratio"},
	{"sim.reorder_highwater", "count"},
	{"engine.run_s", "s"},
	{"engine.self_s", "s"},
	{"engine.rounds", "count"},
	{"engine.allocs_per_run", "count"},
	{"loss.plan_calls", "count"},
	{"loss.plan_s", "s"},
	{"cm.advise_calls", "count"},
	{"cm.advise_s", "s"},
	{"core.step_calls", "count"},
	{"core.step_s", "s"},
	{"sink.records", "count"},
	{"sink.bytes", "bytes"},
	{"sink.encode_s", "s"},
	{"sink.write_calls", "count"},
	{"sink.write_s", "s"},
	{"sink.flush_s", "s"},
	{"replay.render_s", "s"},
	{"events.emitted", "count"},
	{"events.persisted", "count"},
	{"events.dropped", "count"},
	{"sweepd.submit_ms", "ms"},
	{"sweepd.status_ms", "ms"},
	{"sweepd.queue_wait_ms", "ms"},
	{"sweepd.exec_ms", "ms"},
	{"sweepd.other_ms", "ms"},
	{"jobs.queue_highwater", "count"},
	{"trace.overhead_trials_per_s", "1/s"},
}

// runCtx is one benchmark invocation.
type runCtx struct {
	ctx      context.Context
	w        workload
	seed     int64
	trace    bool
	deadline time.Time
	sweepd   string
	self     string
	dir      string
}

// tracePath is where a traced run leaves its spans: next to the run's own
// directory, which is removed when the run ends.
func (r *runCtx) tracePath() string {
	return filepath.Join(filepath.Dir(r.dir), "trace-"+r.w.name+".jsonl")
}

// tally collects a run's operation counts, check failures and metrics.
type tally struct {
	attempted, failed int
	problems          []string
	notes             []string
	values            map[string]float64
}

func (t *tally) fail(format string, args ...any) {
	t.problems = append(t.problems, fmt.Sprintf(format, args...))
}

func (t *tally) note(format string, args ...any) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

func (t *tally) set(name string, v float64) { t.values[name] = v }

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var err error
	if len(os.Args) > 1 && os.Args[1] == "child" {
		err = childMain(os.Args[2:])
	} else {
		err = run(os.Args[1:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: sweep-small | sweep-wide | daemon-mixed")
	seed := fs.Int64("seed", 1, "seed the workload's inputs derive from")
	seconds := fs.Int("seconds", 30, "how long the run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	sweepd := fs.String("sweepd", "", "sweepd binary")
	workdir := fs.String("workdir", ".bench_build/work", "directory for outputs and traces")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *sweepd == "" {
		return fmt.Errorf("-sweepd is required")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	sweepdPath, err := filepath.Abs(*sweepd)
	if err != nil {
		return err
	}
	dir, err := filepath.Abs(filepath.Join(*workdir, fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	r := &runCtx{
		ctx: ctx, w: w, seed: *seed, trace: *trace == 1,
		deadline: time.Now().Add(time.Duration(*seconds) * time.Second),
		sweepd:   sweepdPath, self: self, dir: dir,
	}
	printEnv(*seed)
	t := &tally{values: map[string]float64{}}
	if w.sweep != nil {
		err = r.runSweep(t)
	} else {
		err = r.runDaemon(t)
	}
	if err != nil {
		return err
	}
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	out := resultLine{Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := t.values[d.name]
		if !ok {
			t.fail("metric %s was not measured", d.name)
			continue
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	if out.Attempted < 1 {
		t.fail("no operation attempted")
		out.Attempted = 1
		out.Failed = 1
	}
	out.Correct = len(t.problems) == 0
	for _, n := range t.notes {
		fmt.Println("note:", n)
	}
	for _, p := range t.problems {
		fmt.Println("check failed:", p)
	}
	for _, d := range defs {
		if m, ok := out.Metrics[d.name]; ok {
			fmt.Printf("%-30s %14.6g %s\n", d.name, m.Value, m.Unit)
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// printEnv records the environment the result was measured in.
func printEnv(seed int64) {
	env := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"seed":       seed,
	}
	b, _ := json.Marshal(env) // a map of strings and numbers always marshals
	fmt.Println("env:", string(b))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
