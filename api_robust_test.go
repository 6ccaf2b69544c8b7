package adhocconsensus

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"adhocconsensus/internal/core"
	"adhocconsensus/internal/model"
	"adhocconsensus/internal/sim"
	"adhocconsensus/internal/valueset"
)

// TestRunTrialsContextCancellation: a canceled context stops the run with a
// classifiable error instead of aggregating a partial prefix.
func TestRunTrialsContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{Algorithm: AlgorithmBitByBit, Values: []Value{1, 2, 3}, Domain: 8, Seed: 7}
	_, err := cfg.RunTrialsContext(ctx, 50, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled on the chain", err)
	}
	if !strings.HasPrefix(err.Error(), "adhocconsensus: ") {
		t.Fatalf("public error lost its prefix: %v", err)
	}
}

// TestTrialTimeoutQuarantine: a configuration whose trials exceed the
// deadline streams quarantine results (Err set, digest zero) in their
// ordered slots and keeps the stream complete.
func TestTrialTimeoutQuarantine(t *testing.T) {
	// Bit-by-bit under total loss with ECF disabled never decides (nobody
	// hears anyone), so every trial runs its enormous horizon until the
	// watchdog stops it.
	cfg := Config{
		Algorithm:    AlgorithmBitByBit,
		Values:       []Value{1, 2, 3},
		Domain:       8,
		Loss:         LossDrop,
		ECFRound:     0,
		MaxRounds:    1 << 30,
		Seed:         3,
		TrialTimeout: 30 * time.Millisecond,
	}
	var got []TrialResult
	err := cfg.StreamTrials(3, 2, 0, 1, collectSink{&got})
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("err %v, want a deadline trial error", err)
	}
	if len(got) != 3 {
		t.Fatalf("stream delivered %d results, want all 3 (quarantined)", len(got))
	}
	for i, r := range got {
		if r.Trial != i {
			t.Fatalf("result %d out of order: %+v", i, r)
		}
		if r.Err == "" || r.Rounds != 0 {
			t.Fatalf("trial %d not quarantined: %+v", i, r)
		}
		if r.Err != "sim: trial exceeded its 30ms deadline" {
			t.Fatalf("quarantine message %q not deterministic", r.Err)
		}
	}
}

// TestStreamTrialsContextPrefix: cancellation mid-stream delivers a
// contiguous prefix.
func TestStreamTrialsContextPrefix(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const trials, k = 200, 5
	cfg := Config{Algorithm: AlgorithmBitByBit, Values: []Value{1, 2, 3}, Domain: 8, Seed: 7}
	// Trials from k on hold in their automaton factory until the sink has
	// cancelled, so cancellation lands mid-stream however fast trials run.
	// Held trials are known by their derived seeds; the base seed's
	// up-front validation build passes straight through.
	gate := make(chan struct{})
	held := make(map[int64]bool, trials-k)
	for i := k; i < trials; i++ {
		held[sim.TrialSeed(cfg.Seed, 0, i)] = true
	}
	domain, err := valueset.NewDomain(cfg.Domain)
	if err != nil {
		t.Fatal(err)
	}
	cfg.buildProc = func(i int, s *sim.Scenario) model.Automaton {
		if held[s.Seed] {
			<-gate
		}
		return core.NewAlg2(domain, s.Values[i])
	}
	var got []TrialResult
	err = cfg.StreamTrialsContext(ctx, trials, 2, 0, 1, cancelAfter{&got, k, func() { cancel(); close(gate) }})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if len(got) < k || len(got) >= trials {
		t.Fatalf("%d results delivered after cancel at %d", len(got), k)
	}
	for i, r := range got {
		if r.Trial != i {
			t.Fatalf("canceled stream not a contiguous prefix at %d: %+v", i, r)
		}
	}
}

type cancelAfter struct {
	results *[]TrialResult
	k       int
	cancel  context.CancelFunc
}

func (s cancelAfter) Consume(r TrialResult) error {
	*s.results = append(*s.results, r)
	if len(*s.results) == s.k {
		s.cancel()
	}
	return nil
}
