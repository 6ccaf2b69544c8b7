package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(100)
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %g, want 2", got)
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("p90 of one sample = %g, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples must be NaN")
	}
}

func TestP90HasTenSamplesBeyond(t *testing.T) {
	n := samplesFor(90)
	if n != 100 {
		t.Fatalf("samplesFor(90) = %d, want 100", n)
	}
	if b := beyond(n, 90); b < minBeyond {
		t.Fatalf("beyond(%d, 90) = %d, want >= %d", n, b, minBeyond)
	}
	if b := beyond(n-1, 90); b >= minBeyond {
		t.Fatalf("beyond(%d, 90) = %d: samplesFor is not minimal", n-1, b)
	}
	// The samples beyond the reported p90 are exactly the ones above it.
	xs := seq(n)
	p := percentile(xs, 90)
	above := 0
	for _, x := range xs {
		if x > p {
			above++
		}
	}
	if above != beyond(n, 90) {
		t.Fatalf("%d samples above p90, beyond says %d", above, beyond(n, 90))
	}
	if minDaemons*jobsPerDaemon < n {
		t.Fatalf("%d daemons x %d jobs give fewer than %d latency samples", minDaemons, jobsPerDaemon, n)
	}
	if samplesFor(50) != 20 {
		t.Fatalf("samplesFor(50) = %d, want 20", samplesFor(50))
	}
}

func TestSelfTimeNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "jobs.stream", Start: 0, End: 100},
		// Two overlapping children (parallel workers) count once; a child
		// running past the parent's end is clipped.
		{ID: 2, Parent: 1, Name: "sim.trial", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "sim.trial", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "sim.trial", Start: 90, End: 120},
		// A grandchild is its parent's child only.
		{ID: 5, Parent: 3, Name: "engine.run", Start: 25, End: 45, AggNs: 6},
	}
	self := selfTimes(spans)
	want := map[int64]int64{
		1: 100 - (40 + 10),
		2: 20,
		3: 30 - 20,
		4: 30,
		5: 20 - 6,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	if got := sumBy(spans, "sim.trial", func(s span) int64 { return s.dur() }); got != 80 {
		t.Errorf("sum of sim.trial durations = %d, want 80", got)
	}
	if got := countOf(spans, "sim.trial"); got != 3 {
		t.Errorf("count of sim.trial = %d, want 3", got)
	}
}

func TestRatioRefusesZeroBase(t *testing.T) {
	if _, err := ratio(1, 0); err == nil {
		t.Fatal("ratio with a zero base must fail")
	}
	if v, err := ratio(3, 4); err != nil || v != 0.75 {
		t.Fatalf("ratio(3, 4) = %g, %v", v, err)
	}
}

func TestWorkerBusyFracBase(t *testing.T) {
	// Busy time is per-trial time over workers x the streams that ran the
	// trials; a stream without per-trial spans (an exps job) is no base.
	spans := []span{
		{ID: 1, Name: "jobs.stream", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "sim.trial", Start: 0, End: 100},
		{ID: 3, Parent: 1, Name: "sim.trial", Start: 0, End: 50},
		{ID: 4, Name: "jobs.stream", Start: 200, End: 1200},
	}
	m, err := layerMetrics(spans, &layerTotals{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := m["sim.worker_busy_frac"]; got != 0.75 {
		t.Errorf("sim.worker_busy_frac = %g, want 150/(2*100)", got)
	}
	if got := m["jobs.stream_s"]; got != 1100e-9 {
		t.Errorf("jobs.stream_s = %g, want both streams", got)
	}
	if _, err := layerMetrics(spans[3:], &layerTotals{}, 2); err == nil {
		t.Error("busy fraction without a trial stream must fail")
	}
}

func TestSweepMetricBases(t *testing.T) {
	reps := []repRun{
		{res: repResult{WallNs: 2e9, Executed: 1000, Mallocs: 5000, TotalAlloc: 8000}, setup: 4 * time.Millisecond, rssMiB: 10, results: 30 * time.Millisecond},
		{res: repResult{WallNs: 4e9, Executed: 1000, Mallocs: 7000, TotalAlloc: 9000}, setup: 2 * time.Millisecond, rssMiB: 30, results: 10 * time.Millisecond},
		{res: repResult{WallNs: 1e9, Executed: 1000, Mallocs: 6000, TotalAlloc: 10000}, setup: 3 * time.Millisecond, rssMiB: 20, results: 20 * time.Millisecond},
	}
	m := sweepMetrics(reps)
	want := map[string]float64{
		"trials_per_s":          500, // per repetition: 1000 trials / its own wall
		"allocs_per_trial":      6,
		"alloc_bytes_per_trial": 9,
		"peak_rss_mb":           20,
		"setup_s":               0.003,
		"jobs_per_s":            3.0 / 7, // jobs over the summed Execute time
		"job_latency_p50_ms":    2000,
		"job_latency_p90_ms":    4000,
		"results_p50_ms":        20,
	}
	for k, w := range want {
		if math.Abs(m[k]-w) > 1e-9*math.Abs(w) {
			t.Errorf("%s = %g, want %g", k, m[k], w)
		}
	}
}

func TestLoopMetricBases(t *testing.T) {
	samples := []jobSample{
		{latency: 100 * time.Millisecond},
		{latency: 300 * time.Millisecond},
		{latency: 200 * time.Millisecond},
		{latency: 900 * time.Millisecond}, // failed job: still a latency sample
	}
	m := loopMetrics(samples, 2*time.Second, 2000, 3, 40000, 6000000)
	want := map[string]float64{
		"trials_per_s":          1000, // trials of passing jobs over the loop's wall time
		"allocs_per_trial":      20,
		"alloc_bytes_per_trial": 3000,
		"jobs_per_s":            1.5,
		"job_latency_p50_ms":    200,
		"job_latency_p90_ms":    900,
	}
	for k, w := range want {
		if math.Abs(m[k]-w) > 1e-9*math.Abs(w) {
			t.Errorf("%s = %g, want %g", k, m[k], w)
		}
	}
}
