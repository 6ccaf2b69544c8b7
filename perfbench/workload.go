package main

import (
	"math/rand"
	"strconv"
	"strings"

	"adhocconsensus/internal/jobs"
)

// A workload is a job mix driven through the system's public entry points:
// jobs.Execute for the sweeps, the sweepd HTTP API for the daemon. Every
// input derives from the seed, so the same seed gives the same inputs.
type workload struct {
	name string
	// sweep is the Trials spec a sweep workload executes per repetition;
	// nil for the daemon workload.
	sweep func(seed int64, workers int) jobs.Spec
	// warmTrials is the size of the untimed warm-up Execute before a
	// sweep repetition, and probeTrials how many trials the traced run's
	// single-goroutine allocation probe runs.
	warmTrials, probeTrials int
}

var workloads = []workload{
	{
		// n=4, ~10 rounds a trial: per-trial setup, v1 seeding, wake-up
		// advice, digest and the JSONL record path carry the cost.
		name: "sweep-small",
		sweep: func(seed int64, workers int) jobs.Spec {
			return trialsSpec(100000, workers, seed,
				"-alg", "bitbybit", "-values", "3,7,7,1", "-loss", "prob", "-p", "0.4", "-cst", "5")
		},
		warmTrials:  5000,
		probeTrials: 400,
	},
	{
		// n=64 over |V|=2^16, ~54 rounds of 64x64 deliveries under the v2
		// schedule: the round core is nearly all of the work.
		name: "sweep-wide",
		sweep: func(seed int64, workers int) jobs.Spec {
			return trialsSpec(1500, workers, seed,
				"-alg", "bitbybit", "-values", wideValues(), "-domain", "65536",
				"-loss", "prob", "-p", "0.3", "-cst", "20", "-schedule", "2")
		},
		warmTrials:  40,
		probeTrials: 20,
	},
	{name: "daemon-mixed"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// trialsSpec builds a Trials job spec; the output path is filled in per
// repetition.
func trialsSpec(trials, workers int, seed int64, config ...string) jobs.Spec {
	config = append(config, "-seed", strconv.FormatInt(seed, 10))
	return jobs.Spec{Trials: trials, Config: config, Workers: workers}
}

// wideValues is sweep-wide's 64 initial values, spread over 2^16. They are
// one fixed draw, not drawn from the workload seed: the values set how many
// rounds a trial takes, so the seed varies only the loss draws and every
// seed asks for the same amount of work.
func wideValues() string {
	rng := rand.New(rand.NewSource(1))
	vals := make([]string, 64)
	for i := range vals {
		vals[i] = strconv.Itoa(rng.Intn(1 << 16))
	}
	return strings.Join(vals, ",")
}

// The daemon-mixed job kinds: all 13 paper tables through the grid and
// work pipelines, and a 1000-trial adversarial sweep (capture loss, noisy
// detector, backoff contention manager).
const (
	kindExps   = "exps"
	kindTrials = "trials"
)

// daemonCycle is the order in which a daemon client submits job kinds.
var daemonCycle = []string{kindExps, kindTrials}

// daemonSpec is the job a daemon client submits for one kind.
func daemonSpec(kind string, seed int64, out string) jobs.Spec {
	if kind == kindExps {
		return jobs.Spec{Exps: []string{"all"}, Out: out}
	}
	vals := make([]string, 16)
	for i := range vals {
		vals[i] = strconv.Itoa(i + 1)
	}
	s := trialsSpec(1000, 0, seed, "-values", strings.Join(vals, ","),
		"-loss", "capture", "-p", "0.5", "-cst", "40", "-fp", "0.2", "-backoff")
	s.Out = out
	return s
}

// expTables is how many tables an exps:["all"] job renders.
const expTables = 13
