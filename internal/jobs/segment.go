package jobs

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"adhocconsensus"
	"adhocconsensus/internal/cli"
	"adhocconsensus/internal/events"
	"adhocconsensus/internal/experiments"
	"adhocconsensus/internal/sim"
	"adhocconsensus/internal/sink"
)

// Segment is one experiment's (or the configuration sweep's) contribution
// to a shard file: the planned record sequence of THIS invocation's shard,
// with enough derivation to verify a salvaged prefix record-by-record and
// to stream the remainder after a skip. Segments are laid down in request
// order, so the file's full record sequence is the segments' concatenation
// — which is what makes a byte prefix of the file a prefix of the plan.
//
// Segment is the unit both faces of the pipeline share: "sweeprun run"
// builds segments from its flags, the job supervisor builds the same
// segments from a Spec, and Salvage/Stream treat them identically — which
// is why a daemon-run job's output is byte-identical to the CLI's.
type Segment struct {
	// Name labels errors ("T3", "trials").
	Name string
	// Length is the number of records the segment contributes to this shard.
	Length int
	// Schedule is the segment's seed-schedule version, recorded in the run
	// report (0 for work-item pipelines, which carry explicit seeds).
	Schedule int
	// Verify checks that rec is exactly the segment's pos-th planned record
	// (identity only — outcomes are whatever the recorded run produced).
	Verify func(pos int, rec sink.Record) error
	// Stream executes the segment's trials from skip on, appending records
	// to w. It must flush its JSONL tail before returning, even when
	// canceled, so an interrupted file still ends on a record boundary.
	Stream func(ctx context.Context, skip int, w io.Writer) error
}

// GridSegment plans one scenario-grid experiment's shard.
func GridSegment(e experiments.GridExperiment, shard, shards, workers int, timeout time.Duration) (Segment, error) {
	scenarios, _, err := e.Build()
	if err != nil {
		return Segment{}, err
	}
	shardTrials, err := sim.ShardScenarios(scenarios, shard, shards)
	if err != nil {
		return Segment{}, err
	}
	// Precompute params once per grid point: the sink's lookup runs per
	// trial on the streaming path.
	params := make([]sink.Params, len(scenarios))
	for i, s := range scenarios {
		params[i] = sink.ParamsOf(s)
	}
	schedule := 0
	if len(params) > 0 {
		schedule = params[0].SeedScheduleVersion()
	}
	return Segment{
		Name:     e.Name,
		Length:   len(shardTrials),
		Schedule: schedule,
		Verify: func(pos int, rec sink.Record) error {
			want := shardTrials[pos]
			switch {
			case rec.Exp != e.Name:
				return fmt.Errorf("record belongs to %q, expected %s", rec.Exp, e.Name)
			case rec.Index != want.Index:
				return fmt.Errorf("trial %d, expected global index %d", rec.Index, want.Index)
			case rec.Seed != want.Scenario.Seed:
				return fmt.Errorf("trial %d seed %d does not match this build's grid (%d)", rec.Index, rec.Seed, want.Scenario.Seed)
			}
			if got, exp := rec.Params.SeedScheduleVersion(), params[want.Index].SeedScheduleVersion(); got != exp {
				return &sink.ScheduleMismatchError{Index: rec.Index, Got: got, Want: exp}
			}
			if fp := params[want.Index].Fingerprint(); rec.Fingerprint != fp {
				return fmt.Errorf("trial %d fingerprint %s does not match this build's grid (%s)", rec.Index, rec.Fingerprint, fp)
			}
			return nil
		},
		Stream: func(ctx context.Context, skip int, w io.Writer) error {
			j := sink.NewJSONL(w)
			j.Exp = e.Name
			j.Params = func(i int) sink.Params { return params[i] }
			// Retry absorbs transiently failing writes (sink.MarkRetryable)
			// under bounded exponential backoff before aborting the sweep;
			// Ctx lets a drain abort a retry loop mid-backoff.
			err := (sim.Runner{Workers: workers, TrialTimeout: timeout}).
				SweepTrialsToCtx(ctx, shardTrials[skip:], &sink.Retry{Base: j, Ctx: ctx})
			if ferr := j.Flush(); err == nil && ferr != nil {
				err = cli.WithExit(cli.ExitSink, ferr)
			}
			return err
		},
	}, nil
}

// WorkSegment plans one work-item pipeline's shard: the bespoke analog of
// GridSegment. Items execute on the worker pool through the crash guard
// (and the deadline watchdog when the timeout is set); records stream in
// item order, quarantined items included.
func WorkSegment(e experiments.WorkExperiment, shard, shards, workers int, timeout time.Duration) (Segment, error) {
	items, runItem, _, err := e.Build()
	if err != nil {
		return Segment{}, err
	}
	shardItems, err := experiments.ShardItems(items, shard, shards)
	if err != nil {
		return Segment{}, err
	}
	run := experiments.GuardRun(runItem)
	if timeout > 0 {
		run = experiments.RunWithDeadline(runItem, timeout)
	}
	return Segment{
		Name:   e.Name,
		Length: len(shardItems),
		Verify: func(pos int, rec sink.Record) error {
			want := shardItems[pos]
			switch {
			case rec.Exp != e.Name:
				return fmt.Errorf("record belongs to %q, expected %s", rec.Exp, e.Name)
			case rec.Index != want.Index:
				return fmt.Errorf("item %d, expected global index %d", rec.Index, want.Index)
			case rec.Item != want.Kind || rec.ItemParams != want.Params ||
				rec.Fingerprint != want.Fingerprint() || rec.Seed != want.Seed:
				return fmt.Errorf("item %d does not match this build's pipeline (recorded %s(%s) fp=%s seed=%d)",
					rec.Index, rec.Item, rec.ItemParams, rec.Fingerprint, rec.Seed)
			}
			return nil
		},
		Stream: func(ctx context.Context, skip int, w io.Writer) error {
			return streamWorkItems(ctx, e.Name, shardItems[skip:], run, workers, w)
		},
	}, nil
}

// streamWorkItems executes work items on the pool and streams their records
// in item order through a reorder window, mirroring the ordered-delivery
// contract of sim's sweep path: an item that fails (a recovered executor
// panic, a deadline overrun) streams as a quarantine record in its slot and
// does not stop the pipeline; the first such error is returned after all
// items ran (a *sim.TrialError). Cancellation drains in-flight items,
// flushes the contiguous completed prefix, and returns a *sim.CanceledError.
func streamWorkItems(ctx context.Context, exp string, items []sink.WorkItem, run experiments.WorkRunFunc, workers int, w io.Writer) error {
	j := sink.NewJSONL(w)
	var (
		aborted  atomic.Bool
		mu       sync.Mutex
		next     int
		outs     = make([]string, len(items))
		errs     = make([]error, len(items))
		done     = make([]bool, len(items))
		firstErr error
		sinkErr  error
	)
	ctxErr := (sim.Runner{Workers: workers}).MapCtx(ctx, len(items), func(i int) {
		if aborted.Load() {
			return
		}
		out, err := run(items[i])
		mu.Lock()
		defer mu.Unlock()
		outs[i], errs[i], done[i] = out, err, true
		for next < len(items) && done[next] {
			item := items[next]
			rec := sink.RecordOfItem(exp, item, outs[next])
			if err := errs[next]; err != nil {
				rec.Out, rec.Err = "", err.Error()
				events.Active().Point(events.TypeQuarantine, int64(item.Index), 0, sim.QuarantineCause(err))
				if firstErr == nil {
					firstErr = &sim.TrialError{Index: item.Index, Name: item.Kind, Err: err}
				}
			}
			outs[next], errs[next] = "", nil // release once delivered
			if sinkErr == nil {
				if err := j.WriteRecord(rec); err != nil {
					sinkErr = &sim.SinkError{Err: err}
					aborted.Store(true)
				}
			}
			next++
		}
	})
	ferr := j.Flush()
	switch {
	case sinkErr != nil:
		return sinkErr
	case ctxErr != nil:
		return &sim.CanceledError{Done: next, Total: len(items), Err: ctxErr}
	case ferr != nil:
		return cli.WithExit(cli.ExitSink, ferr)
	}
	return firstErr
}

// TrialsSegment plans one configuration-sweep shard through the public
// streaming API.
func TrialsSegment(cf *cli.ConfigFlags, trials, shard, shards, workers int, timeout time.Duration) (Segment, error) {
	cfg, err := cf.Config()
	if err != nil {
		return Segment{}, err
	}
	cfg.TrialTimeout = timeout
	params := cfg.RecordParams()
	fp := params.Fingerprint()
	length := 0
	if trials > shard {
		length = (trials - shard + shards - 1) / shards
	}
	return Segment{
		Name:     "trials",
		Length:   length,
		Schedule: params.SeedScheduleVersion(),
		Verify: func(pos int, rec sink.Record) error {
			want := shard + pos*shards
			switch {
			case rec.Exp != "trials":
				return fmt.Errorf("record belongs to %q, expected trials", rec.Exp)
			case rec.Index != want:
				return fmt.Errorf("trial %d, expected global index %d", rec.Index, want)
			case rec.Seed != sim.TrialSeed(cfg.Seed, 0, want):
				return fmt.Errorf("trial %d seed %d does not match this configuration's seed schedule (%d)",
					want, rec.Seed, sim.TrialSeed(cfg.Seed, 0, want))
			case rec.Params.SeedScheduleVersion() != params.SeedScheduleVersion():
				return &sink.ScheduleMismatchError{
					Index: want,
					Got:   rec.Params.SeedScheduleVersion(),
					Want:  params.SeedScheduleVersion(),
				}
			case rec.Params != params:
				return fmt.Errorf("trial %d was recorded under different configuration parameters", want)
			case rec.Fingerprint != fp:
				return fmt.Errorf("trial %d fingerprint %s does not match this configuration's (%s)", want, rec.Fingerprint, fp)
			}
			return nil
		},
		Stream: func(ctx context.Context, skip int, w io.Writer) error {
			j := sink.NewJSONL(w)
			j.Exp = "trials"
			err := cfg.StreamTrialsFrom(ctx, trials, workers, shard, shards, skip, &jsonlTrials{j: j, params: params})
			if ferr := j.Flush(); err == nil && ferr != nil {
				err = cli.WithExit(cli.ExitSink, ferr)
			}
			return err
		},
	}, nil
}

// jsonlTrials adapts the public per-trial stream to JSONL records, reusing
// a values scratch so million-trial shards stay allocation-free per record
// like the sim-sweep path.
type jsonlTrials struct {
	j      *sink.JSONL
	params sink.Params
	vals   []uint64
}

func (s *jsonlTrials) Consume(r adhocconsensus.TrialResult) error {
	rec := sink.Record{
		Fingerprint:       r.Fingerprint,
		Index:             r.Trial,
		Seed:              r.Seed,
		Rounds:            r.Rounds,
		AllDecided:        r.Decided,
		Decisions:         r.Decisions,
		LastDecisionRound: r.LastDecisionRound,
		AgreementOK:       r.AgreementOK,
		ValidityOK:        r.ValidityOK,
		TerminationOK:     r.TerminationOK,
		Err:               r.Err,
		Params:            s.params,
	}
	s.vals = s.vals[:0]
	for _, v := range r.DecidedValues {
		s.vals = append(s.vals, uint64(v))
	}
	rec.DecidedValues = s.vals
	return s.j.WriteRecord(rec)
}
