package cli

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strings"
	"testing"

	"adhocconsensus"
)

// TestParseSpellings: every documented flag spelling parses, case-
// insensitively, to its enum value; unknown names and the internal A1
// ablation fail.
func TestParseSpellings(t *testing.T) {
	algs := map[string]adhocconsensus.Algorithm{
		"propose": adhocconsensus.AlgorithmPropose, "alg1": adhocconsensus.AlgorithmPropose,
		"bitbybit": adhocconsensus.AlgorithmBitByBit, "alg2": adhocconsensus.AlgorithmBitByBit,
		"treewalk": adhocconsensus.AlgorithmTreeWalk, "alg3": adhocconsensus.AlgorithmTreeWalk,
		"leaderrelay": adhocconsensus.AlgorithmLeaderRelay, "nonanon": adhocconsensus.AlgorithmLeaderRelay,
	}
	for name, want := range algs {
		for _, spelling := range []string{name, strings.ToUpper(name)} {
			got, err := ParseAlgorithm(spelling)
			if err != nil || got != want {
				t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", spelling, got, err, want)
			}
		}
	}
	for _, bad := range []string{"", "paxos", "alg4", "propose-noveto", "propose "} {
		if got, err := ParseAlgorithm(bad); err == nil {
			t.Errorf("ParseAlgorithm(%q) = %v, want an error", bad, got)
		} else if want := fmt.Sprintf("unknown algorithm %q", bad); err.Error() != want {
			t.Errorf("ParseAlgorithm(%q) error %q, want %q", bad, err, want)
		}
	}
	losses := map[string]adhocconsensus.LossMode{
		"none":          adhocconsensus.LossNone,
		"prob":          adhocconsensus.LossProbabilistic,
		"probabilistic": adhocconsensus.LossProbabilistic,
		"capture":       adhocconsensus.LossCapture,
		"drop":          adhocconsensus.LossDrop,
	}
	for name, want := range losses {
		for _, spelling := range []string{name, strings.ToUpper(name)} {
			got, err := ParseLoss(spelling)
			if err != nil || got != want {
				t.Errorf("ParseLoss(%q) = %v, %v; want %v", spelling, got, err, want)
			}
		}
	}
	for _, bad := range []string{"", "wormhole", "probability", "loss(1)"} {
		if got, err := ParseLoss(bad); err == nil {
			t.Errorf("ParseLoss(%q) = %v, want an error", bad, got)
		} else if want := fmt.Sprintf("unknown loss model %q", bad); err.Error() != want {
			t.Errorf("ParseLoss(%q) error %q, want %q", bad, err, want)
		}
	}
}

// flagMatrix is every combination of the four algorithms, the four loss
// models, seed schedules 1/2 and -backoff: the configurations the shared
// flags can describe along the enum axes.
func flagMatrix() [][]string {
	var out [][]string
	for _, alg := range []string{"propose", "bitbybit", "treewalk", "leaderrelay"} {
		for _, loss := range []string{"none", "prob", "capture", "drop"} {
			for _, sched := range []string{"1", "2"} {
				for _, backoff := range []bool{false, true} {
					args := []string{"-alg", alg, "-loss", loss, "-schedule", sched,
						"-values", "3,7,7,1", "-p", "0.4", "-cst", "5", "-seed", "7", "-rounds", "5000"}
					if backoff {
						args = append(args, "-backoff")
					}
					out = append(out, args)
				}
			}
		}
	}
	return out
}

func parseConfig(t *testing.T, args []string) adhocconsensus.Config {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cf := RegisterConfig(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	cfg, err := cf.Config()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// fingerprintSink keeps the fingerprints a stream delivers.
type fingerprintSink []string

func (s *fingerprintSink) Consume(r adhocconsensus.TrialResult) error {
	*s = append(*s, r.Fingerprint)
	return nil
}

// recordParamsGolden is the SHA-256 of the JSON rendering of RecordParams
// over flagMatrix, in order. Every shard file of these configurations
// carries exactly these params, so the hash changes only when a recorded
// byte would.
const recordParamsGolden = "7da90b0363b7a8fd6c4ae1115a077a9ad3f6d06e2363315ac557adac04d035b8"

// TestRecordParamsMatchStream: over the flag matrix, the params written
// into records are pinned byte for byte, and their fingerprint is the one
// the library stamps on every streamed TrialResult.
func TestRecordParamsMatchStream(t *testing.T) {
	h := sha256.New()
	for _, args := range flagMatrix() {
		cfg := parseConfig(t, args)
		p := RecordParams(cfg)
		if p != cfg.RecordParams() {
			t.Fatalf("%v: RecordParams %+v, library derivation %+v", args, p, cfg.RecordParams())
		}
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
		h.Write([]byte{'\n'})
		var fps fingerprintSink
		if err := cfg.StreamTrials(3, 1, 0, 1, &fps); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if len(fps) != 3 {
			t.Fatalf("%v: streamed %d results, want 3", args, len(fps))
		}
		for _, fp := range fps {
			if fp != p.Fingerprint() {
				t.Fatalf("%v: stream fingerprint %s, RecordParams fingerprint %s", args, fp, p.Fingerprint())
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != recordParamsGolden {
		t.Fatalf("record params over the flag matrix hash to %s, want %s", got, recordParamsGolden)
	}
}
