package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"

	"adhocconsensus"
	"adhocconsensus/internal/sim"
	"adhocconsensus/internal/sink"
	"adhocconsensus/internal/telemetry"
)

// checkReport rejects a run report that is not a complete fresh execution
// of the plan. salvaged > 0 means the output path already held records —
// an earlier repetition's file turned the run into a resume that executed
// little or nothing.
func checkReport(status string, planned, salvaged, executed, want int) error {
	switch {
	case status != telemetry.StatusOK:
		return fmt.Errorf("report status %q, want %q", status, telemetry.StatusOK)
	case salvaged != 0:
		return fmt.Errorf("report salvaged %d record(s): the output path was not fresh, so the run was a resume", salvaged)
	case planned != want:
		return fmt.Errorf("report planned %d trial(s), want %d", planned, want)
	case executed != planned:
		return fmt.Errorf("report executed %d of %d planned trial(s)", executed, planned)
	}
	return nil
}

// checkTrialRecords verifies a configuration sweep's re-read records: one
// record per planned trial, in index order, each with the seed the sweep
// derives for its index. It returns how many trials failed: quarantined, or
// in violation of agreement, validity or termination.
func checkTrialRecords(recs []sink.Record, planned int, sweepSeed int64) (failed int, err error) {
	if len(recs) != planned {
		return 0, fmt.Errorf("shard holds %d record(s), want %d", len(recs), planned)
	}
	for i, r := range recs {
		if r.Exp != "trials" {
			return 0, fmt.Errorf("record %d belongs to %q, want trials", i, r.Exp)
		}
		if r.Index != i {
			return 0, fmt.Errorf("record %d has index %d", i, r.Index)
		}
		if want := sim.TrialSeed(sweepSeed, 0, i); r.Seed != want {
			return 0, fmt.Errorf("record %d has seed %d, want %d", i, r.Seed, want)
		}
		if r.Err != "" || !r.AgreementOK || !r.ValidityOK || !r.TerminationOK {
			failed++
		}
	}
	return failed, nil
}

// readTrials re-reads a shard through sink.ReadRecords, which rejects a
// truncated final line.
func readTrials(path string) ([]sink.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return sink.ReadRecords(f)
}

// trialStats folds a configuration sweep's records into its statistics, as
// sweepd's /results does for a trials job.
func trialStats(recs []sink.Record) (*adhocconsensus.TrialStats, error) {
	results, err := sink.Merge(recs)
	if err != nil {
		return nil, err
	}
	if _, err := sink.UniformSeedSchedule(recs); err != nil {
		return nil, err
	}
	trs := make([]adhocconsensus.TrialResult, len(results))
	for i, r := range results {
		trs[i] = adhocconsensus.TrialResult{
			Trial: r.Index, Seed: r.Seed, Fingerprint: recs[0].Fingerprint,
			Rounds: r.Rounds, Decided: r.AllDecided, Decisions: r.Decisions,
			DecidedValues: r.DecidedValues, LastDecisionRound: r.LastDecisionRound,
			AgreementOK: r.AgreementOK, ValidityOK: r.ValidityOK, TerminationOK: r.TerminationOK,
		}
	}
	return adhocconsensus.TrialStatsOf(trs), nil
}

// fileSHA256 is the hex SHA-256 of a file's bytes.
func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
