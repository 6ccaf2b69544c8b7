package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"adhocconsensus"
	"adhocconsensus/internal/cli"
	"adhocconsensus/internal/engine"
	"adhocconsensus/internal/jobs"
	"adhocconsensus/internal/model"
	"adhocconsensus/internal/sim"
	"adhocconsensus/internal/sink"
	"adhocconsensus/internal/telemetry"
)

// tracer keeps the spans of one traced run in memory until the run ends.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanBuf is one goroutine's private span buffer; flush hands its spans to
// the tracer.
type spanBuf struct {
	tr    *tracer
	spans []span
}

func (tr *tracer) buf() *spanBuf { return &spanBuf{tr: tr} }

func (b *spanBuf) begin(name string, parent int64) span {
	return span{ID: b.tr.nextID.Add(1), Parent: parent, Name: name, Start: int64(time.Since(b.tr.t0))}
}

func (b *spanBuf) end(s span) {
	s.End = int64(time.Since(b.tr.t0))
	b.spans = append(b.spans, s)
}

func (b *spanBuf) flush() {
	b.tr.mu.Lock()
	b.tr.spans = append(b.tr.spans, b.spans...)
	b.tr.mu.Unlock()
	b.spans = nil
}

// layerTotals accumulates what a traced run counts at layer boundaries
// below the span level: calls into loss, cm and core from inside
// engine.Run, and the record path.
type layerTotals struct {
	mu                     sync.Mutex
	planCalls, planNs      int64
	adviseCalls, adviseNs  int64
	stepCalls, stepNs      int64
	rounds                 int64
	encodeNs, flushNs      int64
	writer                 timedWriter
	sinkRecords, sinkBytes uint64
}

func (lt *layerTotals) addProbe(p *engineProbe, rounds int) {
	calls, ns := p.coreTotals()
	lt.mu.Lock()
	defer lt.mu.Unlock()
	lt.planCalls += p.loss.calls.Load()
	lt.planNs += p.loss.ns.Load()
	lt.adviseCalls += p.cm.calls
	lt.adviseNs += p.cm.ns
	lt.stepCalls += calls
	lt.stepNs += ns
	lt.rounds += int64(rounds)
}

// timedWriter is the io.Writer wrapped around the shard file a segment
// streams into: it times and counts the writes that reach the file.
type timedWriter struct {
	w                 io.Writer
	calls, ns, nbytes atomic.Int64
}

func (t *timedWriter) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := t.w.Write(p)
	t.ns.Add(int64(time.Since(start)))
	t.calls.Add(1)
	t.nbytes.Add(int64(n))
	return n, err
}

// configOf parses a Trials spec's flag-args the way jobs.BuildSegments
// does.
func configOf(spec jobs.Spec) (adhocconsensus.Config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cf := cli.RegisterConfig(fs)
	if err := fs.Parse(spec.Config); err != nil {
		return adhocconsensus.Config{}, err
	}
	cfg, err := cf.Config()
	cfg.TrialTimeout = spec.TrialTimeout
	return cfg, err
}

// scenarioOf is the sim.Scenario a multi-trial run of c executes per trial
// (before the per-trial seed is set): the public API's one-to-one
// translation, with per-round views off as every multi-trial run has them.
func scenarioOf(c adhocconsensus.Config) (sim.Scenario, error) {
	algs := map[adhocconsensus.Algorithm]sim.Algorithm{
		adhocconsensus.AlgorithmPropose:     sim.AlgPropose,
		adhocconsensus.AlgorithmBitByBit:    sim.AlgBitByBit,
		adhocconsensus.AlgorithmTreeWalk:    sim.AlgTreeWalk,
		adhocconsensus.AlgorithmLeaderRelay: sim.AlgLeaderRelay,
	}
	cms := map[adhocconsensus.ContentionMode]sim.CMMode{
		adhocconsensus.ContentionAuto:    sim.CMAuto,
		adhocconsensus.ContentionWakeUp:  sim.CMWakeUp,
		adhocconsensus.ContentionLeader:  sim.CMLeader,
		adhocconsensus.ContentionBackoff: sim.CMBackoff,
		adhocconsensus.ContentionNone:    sim.CMNone,
	}
	losses := map[adhocconsensus.LossMode]sim.LossMode{
		adhocconsensus.LossNone:          sim.LossNone,
		adhocconsensus.LossProbabilistic: sim.LossProbabilistic,
		adhocconsensus.LossCapture:       sim.LossCapture,
		adhocconsensus.LossDrop:          sim.LossDrop,
	}
	alg, ok1 := algs[c.Algorithm]
	cmMode, ok2 := cms[c.Contention]
	lossMode, ok3 := losses[c.Loss]
	if !ok1 || !ok2 || !ok3 || len(c.Crashes) > 0 || c.UseGoroutines || c.TrialTimeout > 0 {
		return sim.Scenario{}, fmt.Errorf("configuration outside what the traced decomposition reproduces")
	}
	return sim.Scenario{
		Algorithm:         alg,
		Values:            c.Values,
		Domain:            c.Domain,
		IDs:               c.IDs,
		IDSpace:           c.IDSpace,
		Detector:          c.DetectorClass,
		Race:              c.DetectorRace,
		FalsePositiveRate: c.FalsePositiveRate,
		CM:                cmMode,
		Stable:            c.Stable,
		Loss:              lossMode,
		LossP:             c.LossP,
		ECFRound:          c.ECFRound,
		Crashes:           model.Schedule{},
		MaxRounds:         c.MaxRounds,
		Trace:             engine.TraceDecisionsOnly,
		DeliveryWorkers:   c.DeliveryWorkers,
		Seed:              c.Seed,
		SeedSchedule:      c.SeedSchedule,
	}, nil
}

// tracedExecute is jobs.Execute made of its public calls, in its order —
// BuildSegments, Salvage, Stream, then BuildReport and Report.WriteFile —
// with a span around each. A Trials spec's segment streams through
// tracedTrials instead of the library's sweep loop, so the per-trial
// layers are reached; other segments stream as they are and their layers
// stay inside jobs.stream.
func tracedExecute(ctx context.Context, tr *tracer, lt *layerTotals, spec jobs.Spec) (*telemetry.Report, error) {
	b := tr.buf()
	defer b.flush()
	spec.Normalize()
	root := b.begin("jobs.execute", 0)
	defer func() { b.end(root) }()

	s := b.begin("jobs.build", root.ID)
	segs, err := jobs.BuildSegments(spec)
	b.end(s)
	if err != nil {
		return nil, err
	}
	reg := telemetry.Enable()
	skips := make([]int, len(segs))
	s = b.begin("jobs.salvage", root.ID)
	f, err := jobs.Salvage(spec.Out, segs, skips, io.Discard)
	b.end(s)
	if err != nil {
		return nil, err
	}
	stream := b.begin("jobs.stream", root.ID)
	if spec.Trials > 0 {
		cfg, err := configOf(spec)
		if err != nil {
			f.Close()
			return nil, err
		}
		segs[0].Stream = tracedTrials(tr, lt, stream.ID, cfg, spec)
	}
	lt.writer.w = f
	snap := reg.Snapshot()
	start := time.Now()
	out := jobs.Stream(ctx, segs, skips, &lt.writer, nil)
	b.end(stream)
	after := reg.Snapshot()
	lt.sinkRecords += after["sink.records"].(uint64) - snap["sink.records"].(uint64)
	lt.sinkBytes += after["sink.bytes"].(uint64) - snap["sink.bytes"].(uint64)
	cerr := f.Close()
	if out.AbortErr == nil && cerr != nil {
		out.AbortErr = cerr
	}

	s = b.begin("jobs.report", root.ID)
	rep := jobs.BuildReport("sweepd job", jobs.StatusOf(out.AbortErr, out.TrialErr), time.Since(start), out.Segments, out.Causes)
	werr := rep.WriteFile(spec.Out + ".report.json")
	b.end(s)
	if werr != nil {
		return rep, werr
	}
	return rep, out.Err()
}

// tracedTrials streams a Trials segment through the public per-trial
// calls — Scenario.Materialize, engine.Run, the digest calls, and
// JSONL.WriteRecord — on a worker pool with an ordered reorder window,
// reproducing the library's stream byte for byte.
func tracedTrials(tr *tracer, lt *layerTotals, parent int64, cfg adhocconsensus.Config, spec jobs.Spec) func(context.Context, int, io.Writer) error {
	return func(ctx context.Context, skip int, w io.Writer) error {
		base, err := scenarioOf(cfg)
		if err != nil {
			return err
		}
		params := cli.RecordParams(cfg)
		bp := sink.ParamsOf(base)
		bp.SweepSeed = cfg.Seed
		fp := bp.Fingerprint()
		var idx []int
		for t := spec.Shard + skip*spec.Shards; t < spec.Trials; t += spec.Shards {
			idx = append(idx, t)
		}
		n := len(idx)
		j := sink.NewJSONL(w)
		j.Exp = "trials"

		workers := spec.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		workers = min(workers, n)
		var (
			mu       sync.Mutex
			next     int
			buf      = make([]sim.Result, n)
			done     = make([]bool, n)
			vals     []uint64
			firstErr error
			sinkErr  error
			claim    atomic.Int64
			wg       sync.WaitGroup
		)
		deliver := func(r sim.Result) {
			rec := sink.Record{Fingerprint: fp, Index: r.Index, Seed: r.Seed, Params: params}
			if r.Err != nil {
				rec.Err = r.Err.Error()
				if firstErr == nil {
					firstErr = &sim.TrialError{Index: r.Index, Name: r.Name, Err: r.Err}
				}
			} else {
				rec.Rounds, rec.AllDecided, rec.Decisions = r.Rounds, r.AllDecided, r.Decisions
				rec.LastDecisionRound = r.LastDecisionRound
				rec.AgreementOK, rec.ValidityOK, rec.TerminationOK = r.AgreementOK, r.ValidityOK, r.TerminationOK
				vals = vals[:0]
				for _, v := range r.DecidedValues {
					vals = append(vals, uint64(v))
				}
				rec.DecidedValues = vals
			}
			wNs := lt.writer.ns.Load()
			start := time.Now()
			err := j.WriteRecord(rec)
			lt.encodeNs += int64(time.Since(start)) - (lt.writer.ns.Load() - wNs)
			if err != nil && sinkErr == nil {
				sinkErr = &sim.SinkError{Err: err}
			}
		}
		wg.Add(workers)
		for k := 0; k < workers; k++ {
			go func() {
				defer wg.Done()
				b := tr.buf()
				defer b.flush()
				for ctx.Err() == nil {
					i := int(claim.Add(1)) - 1
					if i >= n {
						return
					}
					r := traceTrial(b, lt, parent, idx[i], base, cfg.Seed)
					mu.Lock()
					buf[i], done[i] = r, true
					for next < n && done[next] && sinkErr == nil {
						deliver(buf[next])
						buf[next] = sim.Result{}
						next++
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		start := time.Now()
		ferr := j.Flush()
		lt.flushNs += int64(time.Since(start))
		switch {
		case sinkErr != nil:
			return sinkErr
		case ctx.Err() != nil:
			return &sim.CanceledError{Done: next, Total: n, Err: ctx.Err()}
		case ferr != nil:
			return ferr
		}
		return firstErr
	}
}

// traceTrial runs one trial as sim.RunTrialFull does, with the engine's
// components decorated and a span around each public call.
func traceTrial(b *spanBuf, lt *layerTotals, parent int64, index int, base sim.Scenario, sweepSeed int64) (res sim.Result) {
	s := base
	s.Seed = sim.TrialSeed(sweepSeed, 0, index)
	trial := b.begin("sim.trial", parent)
	defer func() {
		if v := recover(); v != nil {
			res = sim.Result{Index: index, Name: s.Name, Seed: s.Seed, Err: engine.NewPanicError(v)}
		}
		b.end(trial)
	}()
	sp := b.begin("sim.materialize", trial.ID)
	ecfg, err := s.Materialize()
	b.end(sp)
	if err != nil {
		return sim.Result{Index: index, Name: s.Name, Seed: s.Seed, Err: err}
	}
	probe := decorate(ecfg, s.Seed)
	sp = b.begin("engine.run", trial.ID)
	out, err := engine.Run(*ecfg)
	_, coreNs := probe.coreTotals()
	sp.AggNs = probe.loss.ns.Load() + probe.cm.ns + coreNs
	b.end(sp)
	rounds := 0
	if out != nil {
		rounds = out.Rounds
	}
	lt.addProbe(probe, rounds)
	if err != nil {
		return sim.Result{Index: index, Name: s.Name, Seed: s.Seed, Err: err}
	}
	sp = b.begin("sim.digest", trial.ID)
	res = sim.Result{
		Index:             index,
		Name:              s.Name,
		Seed:              s.Seed,
		Rounds:            out.Rounds,
		AllDecided:        out.AllDecided,
		Decisions:         len(out.Decisions),
		DecidedValues:     out.Execution.DecidedValues(),
		LastDecisionRound: out.Execution.LastDecisionRound(),
		AgreementOK:       engine.CheckAgreement(out) == nil,
		ValidityOK:        engine.CheckStrongValidity(out) == nil,
		TerminationOK:     engine.CheckTermination(out, s.Crashes) == nil,
	}
	b.end(sp)
	return res
}

// allocProbe runs the first trials of a spec on one goroutine through the
// undecorated public calls and returns the mean heap allocations of one
// Scenario.Materialize and of one engine.Run.
func allocProbe(spec jobs.Spec, trials int) (materialize, run float64, err error) {
	cfg, err := configOf(spec)
	if err != nil {
		return 0, 0, err
	}
	base, err := scenarioOf(cfg)
	if err != nil {
		return 0, 0, err
	}
	trials = min(trials, spec.Trials)
	var m0, m1, m2 runtime.MemStats
	var matAllocs, runAllocs uint64
	for i := 0; i < trials; i++ {
		s := base
		s.Seed = sim.TrialSeed(cfg.Seed, 0, i)
		runtime.ReadMemStats(&m0)
		ecfg, err := s.Materialize()
		runtime.ReadMemStats(&m1)
		if err != nil {
			return 0, 0, err
		}
		if _, err := engine.Run(*ecfg); err != nil {
			return 0, 0, err
		}
		runtime.ReadMemStats(&m2)
		matAllocs += m1.Mallocs - m0.Mallocs
		runAllocs += m2.Mallocs - m1.Mallocs
	}
	return float64(matAllocs) / float64(trials), float64(runAllocs) / float64(trials), nil
}

// writeTrace writes the spans out as JSON lines, one span a line, with
// each span's self time.
func writeTrace(path string, spans []span) error {
	self := selfTimes(spans)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(bw, `{"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d,"agg_ns":%d,"self_ns":%d}`+"\n",
			s.ID, s.Parent, s.Name, s.Start, s.End, s.AggNs, self[s.ID])
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
