package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"adhocconsensus/internal/jobs"
)

// pollEvery is the Done-detection method's granularity: a client polls
// GET /jobs/{id} at this fixed interval until the job is terminal.
const pollEvery = 5 * time.Millisecond

// daemon is a sweepd subprocess on loopback.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
}

var addrLine = regexp.MustCompile(`on http://(\S+) `)

// startDaemon launches sweepd with its default journal on an ephemeral
// loopback port and returns once /healthz answers; setup is the time from
// process start until then.
func startDaemon(ctx context.Context, bin, dir string) (*daemon, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	cmd := exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0", "-dir", dir)
	addr := &addrWatch{found: make(chan string, 1)}
	cmd.Stdout = addr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, client: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 8},
	}}
	select {
	case a := <-addr.found:
		d.base = "http://" + a
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, 0, fmt.Errorf("sweepd printed no listen address")
	}
	for {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 30*time.Second {
			d.kill()
			return nil, 0, fmt.Errorf("sweepd /healthz did not answer: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	return d, time.Since(start), nil
}

// addrWatch is sweepd's standard output: it discards the daemon's
// informational lines and reports the listen address from the first one
// that names it.
type addrWatch struct {
	buf   []byte
	found chan string
	done  bool
}

func (w *addrWatch) Write(p []byte) (int, error) {
	if !w.done {
		w.buf = append(w.buf, p...)
		if m := addrLine.FindSubmatch(w.buf); m != nil {
			w.found <- string(m[1])
			w.done, w.buf = true, nil
		}
	}
	return len(p), nil
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already exiting is fine
	_ = d.cmd.Wait()         // the kill is the error being reported
}

// stop drains the daemon with SIGTERM and returns its peak resident
// memory in MiB, read just before the drain.
func (d *daemon) stop() (float64, error) {
	rss, err := peakRSSKiB(strconv.Itoa(d.cmd.Process.Pid))
	if err != nil {
		d.kill()
		return 0, err
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return 0, err
	}
	if err := d.cmd.Wait(); err != nil {
		return 0, fmt.Errorf("sweepd exit: %w", err)
	}
	return float64(rss) / 1024, nil
}

// peakRSSKiB reads a process's resident high-water mark (VmHWM) from
// /proc. Unlike the rusage of a reaped child, it excludes the spawning
// process's resident set, which Linux carries into the child's maxrss
// across the exec.
func peakRSSKiB(pid string) (int64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/%s/status has no VmHWM", pid)
}

// call makes one request and returns its body and round-trip time.
func (d *daemon) call(method, path string, body []byte) ([]byte, time.Duration, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rtt := time.Since(start)
	if err != nil {
		return nil, rtt, err
	}
	if resp.StatusCode/100 != 2 {
		return b, rtt, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(b))
	}
	return b, rtt, nil
}

// counters reads the daemon's telemetry registry from /metrics.
func (d *daemon) counters() (map[string]float64, error) {
	b, _, err := d.call("GET", "/metrics", nil)
	if err != nil {
		return nil, err
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(raw))
	for k, v := range raw {
		var f float64
		if json.Unmarshal(v, &f) == nil {
			out[k] = f
		}
	}
	return out, nil
}

var memStatLine = regexp.MustCompile(`(?m)^# (Mallocs|TotalAlloc) = (\d+)$`)

// memStats reads the daemon's runtime.MemStats Mallocs and TotalAlloc from
// the heap profile's text form.
func (d *daemon) memStats() (mallocs, totalAlloc uint64, err error) {
	b, _, err := d.call("GET", "/debug/pprof/heap?debug=1", nil)
	if err != nil {
		return 0, 0, err
	}
	found := 0
	for _, m := range memStatLine.FindAllSubmatch(b, -1) {
		v, err := strconv.ParseUint(string(m[2]), 10, 64)
		if err != nil {
			return 0, 0, err
		}
		if string(m[1]) == "Mallocs" {
			mallocs = v
		} else {
			totalAlloc = v
		}
		found++
	}
	if found != 2 {
		return 0, 0, fmt.Errorf("heap profile carries no MemStats")
	}
	return mallocs, totalAlloc, nil
}

// jobSample is one job's trip through the daemon, seen by its client.
type jobSample struct {
	id        int64
	kind, out string
	state     jobs.State
	exitCode  int
	executed  int
	// latency runs from sending POST /jobs until Done is observed;
	// submit is the POST round trip; queueWait runs from the POST reply
	// until the job is first seen past queued, less half a polling
	// interval; exec is the report's wall_ns; statusMean is the mean
	// GET /jobs/{id} round trip.
	latency, submit, queueWait, exec, statusMean time.Duration
	resultsText                                  string
	err                                          error
}

// runJob submits one job, polls it to a terminal state, and fetches its
// results. With b non-nil it records a span around the job and each of its
// API calls.
func (d *daemon) runJob(spec jobs.Spec, kind string, b *spanBuf) jobSample {
	js := jobSample{kind: kind, out: spec.Out}
	var job span
	if b != nil {
		job = b.begin("sweepd.job", 0)
		defer func() { b.end(job) }()
	}
	call := func(name, method, path string, body []byte) ([]byte, time.Duration, error) {
		if b == nil {
			return d.call(method, path, body)
		}
		s := b.begin(name, job.ID)
		defer b.end(s)
		return d.call(method, path, body)
	}
	body, err := json.Marshal(spec)
	if err != nil {
		js.err = err
		return js
	}
	start := time.Now()
	resp, submit, err := call("sweepd.submit", "POST", "/jobs", body)
	js.submit = submit
	if err != nil {
		js.err = err
		return js
	}
	var st jobs.Status
	if err := json.Unmarshal(resp, &st); err != nil {
		js.err = err
		return js
	}
	js.id = st.ID
	submitted := time.Now()
	// The job left the queue between the last poll that saw it queued and
	// the first that did not; the midpoint halves the polling error.
	lastQueued := submitted
	path := "/jobs/" + strconv.FormatInt(st.ID, 10)
	var polls int
	var pollSum time.Duration
	for !st.State.Terminal() {
		time.Sleep(pollEvery)
		resp, rtt, err := call("sweepd.status", "GET", path, nil)
		if err != nil {
			js.err = err
			return js
		}
		polls++
		pollSum += rtt
		st = jobs.Status{}
		if err := json.Unmarshal(resp, &st); err != nil {
			js.err = err
			return js
		}
		switch {
		case st.State == jobs.StateQueued:
			lastQueued = time.Now()
		case js.queueWait == 0:
			js.queueWait = lastQueued.Sub(submitted) + time.Since(lastQueued)/2
		}
	}
	js.latency = time.Since(start)
	if polls > 0 {
		js.statusMean = pollSum / time.Duration(polls)
	}
	js.state, js.exitCode = st.State, st.ExitCode
	if st.Report != nil {
		js.exec = time.Duration(st.Report.WallNs)
		js.executed = st.Report.Trials.Executed
	}
	resp, _, err = call("sweepd.results", "GET", path+"/results?quiet", nil)
	js.resultsText = string(resp)
	if err != nil {
		js.err = err
	}
	return js
}

// checkJob applies the daemon workload's output checks to one job: done
// with exit 0, and an exps job's results render every paper table PASS.
func checkJob(js jobSample) error {
	if js.err != nil {
		return js.err
	}
	if js.state != jobs.StateDone || js.exitCode != 0 {
		return fmt.Errorf("job %s ended %s with exit %d", js.out, js.state, js.exitCode)
	}
	if js.kind == kindExps {
		pass := 0
		for _, line := range strings.Split(strings.TrimSpace(js.resultsText), "\n") {
			if strings.HasSuffix(line, ": PASS") {
				pass++
			} else {
				return fmt.Errorf("job %s results: %q", js.out, line)
			}
		}
		if pass != expTables {
			return fmt.Errorf("job %s results render %d table(s) PASS, want %d", js.out, pass, expTables)
		}
	}
	return nil
}
