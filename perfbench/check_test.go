package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adhocconsensus/internal/jobs"
	"adhocconsensus/internal/sim"
	"adhocconsensus/internal/sink"
)

// executeSmall runs a short sweep-small spec through jobs.Execute.
func executeSmall(t *testing.T, out string, trials int) jobs.Spec {
	t.Helper()
	w, _ := workloadByName("sweep-small")
	spec := w.sweep(7, 2)
	spec.Trials = trials
	spec.Out = out
	if _, err := jobs.Execute(context.Background(), spec, io.Discard); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestChecksAcceptFreshRun(t *testing.T) {
	spec := executeSmall(t, filepath.Join(t.TempDir(), "a.jsonl"), 50)
	recs, err := readTrials(spec.Out)
	if err != nil {
		t.Fatal(err)
	}
	if failed, err := checkTrialRecords(recs, 50, 7); err != nil || failed != 0 {
		t.Fatalf("fresh run: %d failed, %v", failed, err)
	}
	if err := checkReport("ok", 50, 0, 50, 50); err != nil {
		t.Fatal(err)
	}
}

func TestCheckReportRejectsResume(t *testing.T) {
	// A second Execute on the same path salvages the first run's records
	// and executes nothing: the output path was not fresh.
	out := filepath.Join(t.TempDir(), "a.jsonl")
	spec := executeSmall(t, out, 20)
	rep, err := jobs.Execute(context.Background(), spec, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	err = checkReport(rep.Status, rep.Trials.Planned, rep.Trials.Salvaged, rep.Trials.Executed, 20)
	if err == nil || !strings.Contains(err.Error(), "salvaged") {
		t.Fatalf("resumed run passed the report check: %v", err)
	}
	for _, c := range []struct {
		status                            string
		planned, salvaged, executed, want int
	}{
		{"trial_errors", 20, 0, 20, 20},
		{"ok", 10, 0, 10, 20},
		{"ok", 20, 0, 19, 20},
	} {
		if checkReport(c.status, c.planned, c.salvaged, c.executed, c.want) == nil {
			t.Errorf("report %+v passed", c)
		}
	}
}

func TestChecksRejectTruncatedShard(t *testing.T) {
	out := filepath.Join(t.TempDir(), "a.jsonl")
	executeSmall(t, out, 20)
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	// A torn final line: sink.ReadRecords refuses it.
	if err := os.WriteFile(out, b[:len(b)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readTrials(out); err == nil {
		t.Fatal("torn shard re-read without error")
	}
	// Whole lines missing: the record count check refuses it.
	lines := bytes.SplitAfter(b, []byte("\n"))
	if err := os.WriteFile(out, bytes.Join(lines[:15], nil), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := readTrials(out)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkTrialRecords(recs, 20, 7); err == nil {
		t.Fatal("shard with 15 of 20 records passed")
	}
}

func TestCheckTrialRecordsIdentity(t *testing.T) {
	good := func() []sink.Record {
		recs := make([]sink.Record, 3)
		for i := range recs {
			recs[i] = sink.Record{Exp: "trials", Index: i, Seed: sim.TrialSeed(9, 0, i),
				AgreementOK: true, ValidityOK: true, TerminationOK: true}
		}
		return recs
	}
	if failed, err := checkTrialRecords(good(), 3, 9); err != nil || failed != 0 {
		t.Fatalf("good records: %d, %v", failed, err)
	}
	recs := good()
	recs[1].Seed++
	if _, err := checkTrialRecords(recs, 3, 9); err == nil {
		t.Error("wrong seed passed")
	}
	recs = good()
	recs[2].Index = 5
	if _, err := checkTrialRecords(recs, 3, 9); err == nil {
		t.Error("wrong index passed")
	}
	recs = good()
	recs[0].Err = "panic: boom"
	recs[2].TerminationOK = false
	if failed, err := checkTrialRecords(recs, 3, 9); err != nil || failed != 2 {
		t.Errorf("quarantined + non-terminating: %d failed, %v; want 2", failed, err)
	}
}

func TestCheckJob(t *testing.T) {
	pass := strings.Repeat("T1: PASS\n", expTables)
	ok := jobSample{kind: kindExps, state: jobs.StateDone, resultsText: pass}
	if err := checkJob(ok); err != nil {
		t.Fatal(err)
	}
	for name, js := range map[string]jobSample{
		"quarantined": {kind: kindTrials, state: jobs.StateQuarantined, exitCode: 2},
		"exit code":   {kind: kindTrials, state: jobs.StateDone, exitCode: 2},
		"one FAIL":    {kind: kindExps, state: jobs.StateDone, resultsText: "T2: FAIL\n" + pass},
		"12 tables":   {kind: kindExps, state: jobs.StateDone, resultsText: strings.Repeat("T1: PASS\n", expTables-1)},
	} {
		if checkJob(js) == nil {
			t.Errorf("%s passed", name)
		}
	}
}

func TestTracedDecompositionIsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"sweep-small", "sweep-wide"} {
		w, _ := workloadByName(name)
		spec := w.sweep(3, 2)
		spec.Trials = 12
		spec.Out = filepath.Join(dir, name+"-plain.jsonl")
		if _, err := jobs.Execute(context.Background(), spec, io.Discard); err != nil {
			t.Fatal(err)
		}
		traced := spec
		traced.Out = filepath.Join(dir, name+"-traced.jsonl")
		lt := &layerTotals{}
		tr := newTracer()
		if _, err := tracedExecute(context.Background(), tr, lt, traced); err != nil {
			t.Fatal(err)
		}
		a, _ := fileSHA256(spec.Out)
		b, _ := fileSHA256(traced.Out)
		if a != b || a == "" {
			t.Errorf("%s: traced shard %s, untraced %s", name, b, a)
		}
		if got := countOf(tr.spans, "sim.materialize"); got != 12 {
			t.Errorf("%s: %d materialize spans, want 12", name, got)
		}
		if lt.planCalls != lt.rounds || lt.adviseCalls != lt.rounds || lt.rounds == 0 {
			t.Errorf("%s: %d plan and %d advise calls over %d rounds", name, lt.planCalls, lt.adviseCalls, lt.rounds)
		}
	}
}
