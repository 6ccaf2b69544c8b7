// Package cli holds the flag vocabulary and output formatting shared by the
// command-line tools (cmd/consensus-sim, cmd/sweeprun, cmd/sweepd): the
// mapping from flag spellings to public Config values (through sim's name
// tables), the multi-trial summary printer, the per-trial seed-provenance
// report, and the renderer of recorded shards. Keeping one copy here is
// what makes "sweeprun merge" output byte-comparable with "consensus-sim
// -trials" output for the same configuration, and sweepd's results
// endpoint byte-identical to "sweeprun replay".
package cli

import (
	"flag"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"adhocconsensus"
	"adhocconsensus/internal/replay"
	"adhocconsensus/internal/sim"
	"adhocconsensus/internal/sink"
)

// ParseAlgorithm maps a flag spelling to the public Algorithm. The accepted
// names are sim's algorithm table, so merge tools parse recorded
// sink.Params.Algorithm with the same function; the internal A1 ablation
// is rejected.
func ParseAlgorithm(name string) (adhocconsensus.Algorithm, error) {
	a, ok := sim.ParseAlgorithm(name)
	if !ok || !a.Public() {
		return 0, fmt.Errorf("unknown algorithm %q", name)
	}
	return a, nil
}

// ParseLoss maps a flag spelling to the public LossMode.
func ParseLoss(name string) (adhocconsensus.LossMode, error) {
	m, ok := sim.ParseLoss(name)
	if !ok {
		return 0, fmt.Errorf("unknown loss model %q", name)
	}
	return m, nil
}

// ParseValues parses the comma-separated initial-value list.
func ParseValues(csv string) ([]adhocconsensus.Value, error) {
	var values []adhocconsensus.Value
	for _, part := range strings.Split(csv, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %w", part, err)
		}
		values = append(values, adhocconsensus.Value(v))
	}
	return values, nil
}

// ConfigFlags bundles the shared consensus-configuration flags registered
// on a FlagSet.
type ConfigFlags struct {
	Alg       *string
	Values    *string
	Domain    *uint64
	IDSpace   *uint64
	LossName  *string
	LossP     *float64
	CST       *int
	FPRate    *float64
	Backoff   *bool
	Seed      *int64
	Schedule  *int
	MaxRounds *int
}

// RegisterConfig registers the shared configuration flags with their
// canonical names and defaults.
func RegisterConfig(fs *flag.FlagSet) *ConfigFlags {
	return &ConfigFlags{
		Alg:       fs.String("alg", "bitbybit", "algorithm: propose | bitbybit | treewalk | leaderrelay"),
		Values:    fs.String("values", "3,7,7,1", "comma-separated initial values, one per process"),
		Domain:    fs.Uint64("domain", 0, "|V| (default: max value + 1)"),
		IDSpace:   fs.Uint64("idspace", 0, "|I| for leaderrelay (default 2^48)"),
		LossName:  fs.String("loss", "none", "loss model: none | prob | capture | drop"),
		LossP:     fs.Float64("p", 0.3, "loss probability for prob/capture"),
		CST:       fs.Int("cst", 1, "communication stabilization round (ECF, wake-up, accuracy)"),
		FPRate:    fs.Float64("fp", 0, "detector false positive rate before stabilization"),
		Backoff:   fs.Bool("backoff", false, "use the backoff contention manager instead of a pinned wake-up service"),
		Seed:      fs.Int64("seed", 1, "seed for all randomized components"),
		Schedule:  fs.Int("schedule", 1, "seed schedule: 1 (sequential, historical) | 2 (counter-based, order-free)"),
		MaxRounds: fs.Int("rounds", 100000, "maximum rounds to execute"),
	}
}

// Config assembles the public configuration from the parsed flags,
// including the tree-walk no-ECF rule.
func (f *ConfigFlags) Config() (adhocconsensus.Config, error) {
	alg, err := ParseAlgorithm(*f.Alg)
	if err != nil {
		return adhocconsensus.Config{}, err
	}
	values, err := ParseValues(*f.Values)
	if err != nil {
		return adhocconsensus.Config{}, err
	}
	lossMode, err := ParseLoss(*f.LossName)
	if err != nil {
		return adhocconsensus.Config{}, err
	}
	cfg := adhocconsensus.Config{
		Algorithm:         alg,
		Values:            values,
		Domain:            *f.Domain,
		IDSpace:           *f.IDSpace,
		Loss:              lossMode,
		LossP:             *f.LossP,
		ECFRound:          *f.CST,
		Stable:            *f.CST,
		DetectorRace:      *f.CST,
		FalsePositiveRate: *f.FPRate,
		Seed:              *f.Seed,
		SeedSchedule:      *f.Schedule,
		MaxRounds:         *f.MaxRounds,
	}
	if *f.Backoff {
		cfg.Contention = adhocconsensus.ContentionBackoff
	}
	if alg == adhocconsensus.AlgorithmTreeWalk {
		cfg.ECFRound = 0 // the tree walk needs no delivery guarantee
	}
	return cfg, nil
}

// RecordParams renders the configuration as recorded trial parameters:
// the library's own derivation, whose fingerprint every streamed
// TrialResult carries.
func RecordParams(c adhocconsensus.Config) sink.Params { return c.RecordParams() }

// PrintTrialStats writes the multi-trial summary block in the format
// consensus-sim -trials has always printed.
func PrintTrialStats(w io.Writer, alg adhocconsensus.Algorithm, processes int, st *adhocconsensus.TrialStats) {
	fmt.Fprintf(w, "algorithm : %v\n", alg)
	fmt.Fprintf(w, "processes : %d\n", processes)
	fmt.Fprintf(w, "trials    : %d\n", st.Trials)
	fmt.Fprintf(w, "decided   : %d/%d\n", st.Decided, st.Trials)
	fmt.Fprintf(w, "rounds    : min=%d med=%g mean=%.4g p95=%g max=%d\n",
		st.MinRounds, st.MedianRounds, st.MeanRounds, st.P95Rounds, st.MaxRounds)
	type valueCount struct {
		value  adhocconsensus.Value
		trials int
	}
	agreements := make([]valueCount, 0, len(st.Agreements))
	for v, n := range st.Agreements {
		agreements = append(agreements, valueCount{v, n})
	}
	sort.Slice(agreements, func(i, j int) bool { return agreements[i].value < agreements[j].value })
	for _, va := range agreements {
		fmt.Fprintf(w, "  agreed on %d in %d trial(s)\n", uint64(va.value), va.trials)
	}
	if st.AgreementViolations > 0 {
		fmt.Fprintf(w, "  AGREEMENT VIOLATED in %d trial(s)\n", st.AgreementViolations)
	}
}

// TrialResultsOf reconstructs the public TrialResults of a merged
// configuration-sweep group, verifying that one sweep ran under one seed
// schedule and one fingerprint.
func TrialResultsOf(recs []sink.Record) ([]adhocconsensus.TrialResult, error) {
	results, err := sink.Merge(recs)
	if err != nil {
		return nil, err
	}
	// Shards recorded under v1 and v2 are different experiments and must
	// not fold together.
	if _, err := sink.UniformSeedSchedule(recs); err != nil {
		return nil, err
	}
	fp := recs[0].Fingerprint
	for _, rec := range recs {
		if rec.Fingerprint != fp {
			return nil, fmt.Errorf("trial %d fingerprint %s differs from %s — shards from different configurations",
				rec.Index, rec.Fingerprint, fp)
		}
	}
	trs := make([]adhocconsensus.TrialResult, len(results))
	for i, r := range results {
		trs[i] = adhocconsensus.TrialResult{
			Trial:             r.Index,
			Seed:              r.Seed,
			Fingerprint:       fp,
			Rounds:            r.Rounds,
			Decided:           r.AllDecided,
			Decisions:         r.Decisions,
			DecidedValues:     r.DecidedValues,
			LastDecisionRound: r.LastDecisionRound,
			AgreementOK:       r.AgreementOK,
			ValidityOK:        r.ValidityOK,
			TerminationOK:     r.TerminationOK,
		}
	}
	return trs, nil
}

// PrintGroup renders one experiment group of recorded shards without
// re-simulating, exactly as "sweeprun replay" and sweepd's results endpoint
// print it: the configuration sweep ("trials") as the statistics and seed
// provenance consensus-sim -trials prints, any other group as its
// experiment table. Under quiet each group collapses to one line. pass is
// the table's own verdict (always true for a sweep).
func PrintGroup(w io.Writer, name string, recs []sink.Record, quiet bool) (pass bool, err error) {
	if name == "trials" {
		return true, printTrialRecords(w, recs, quiet)
	}
	table, err := replay.RenderExperiment(name, recs)
	if err != nil {
		return false, err
	}
	if quiet {
		verdict := "PASS"
		if !table.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "%s: %s\n", name, verdict)
	} else {
		fmt.Fprintln(w, table)
	}
	return table.Pass, nil
}

func printTrialRecords(w io.Writer, recs []sink.Record, quiet bool) error {
	trs, err := TrialResultsOf(recs)
	if err != nil {
		return err
	}
	st := adhocconsensus.TrialStatsOf(trs)
	if quiet {
		fmt.Fprintf(w, "trials: %d merged, %d decided, %d violation(s)\n",
			st.Trials, st.Decided, st.AgreementViolations)
		return nil
	}
	alg, err := ParseAlgorithm(recs[0].Params.Algorithm)
	if err != nil {
		return fmt.Errorf("records carry no usable algorithm param: %w", err)
	}
	PrintTrialStats(w, alg, recs[0].Params.N, st)
	PrintSeedProvenance(w, trs)
	return nil
}

// maxFlagged bounds how many anomalous trials PrintSeedProvenance lists per
// category.
const maxFlagged = 5

// PrintSeedProvenance reports, per trial worth re-examining, the derived
// seed that reproduces it standalone: pass the seed to a single run (drop
// -trials) for a byte-identical execution modulo trace recording. Flagged
// are every undecided trial and every agreement violation (up to 5 each),
// plus the slowest trial as the round-count outlier.
func PrintSeedProvenance(w io.Writer, results []adhocconsensus.TrialResult) {
	if len(results) == 0 {
		return
	}
	fmt.Fprintf(w, "seeds     : trial t ran with seed splitmix64(seed, t); rerun one standalone via -seed <trial seed> (drop -trials)\n")
	slowest := 0
	for i, r := range results {
		if r.Rounds > results[slowest].Rounds {
			slowest = i
		}
	}
	s := results[slowest]
	fmt.Fprintf(w, "  slowest   : trial %d (%d rounds) seed %d\n", s.Trial, s.Rounds, s.Seed)
	undecided, violated := 0, 0
	for _, r := range results {
		if !r.Decided {
			if undecided < maxFlagged {
				fmt.Fprintf(w, "  undecided : trial %d (%d rounds) seed %d\n", r.Trial, r.Rounds, r.Seed)
			}
			undecided++
		}
		if len(r.DecidedValues) > 1 {
			if violated < maxFlagged {
				fmt.Fprintf(w, "  VIOLATION : trial %d decided %v, seed %d\n", r.Trial, r.DecidedValues, r.Seed)
			}
			violated++
		}
	}
	if undecided > maxFlagged {
		fmt.Fprintf(w, "  ... and %d more undecided trial(s)\n", undecided-maxFlagged)
	}
	if violated > maxFlagged {
		fmt.Fprintf(w, "  ... and %d more violating trial(s)\n", violated-maxFlagged)
	}
}
