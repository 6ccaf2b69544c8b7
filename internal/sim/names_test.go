package sim

import (
	"fmt"
	"strings"
	"testing"
)

// checkTable: every record name and flag spelling in the table parses back
// to its value (in any case), no spelling is claimed twice, and the value's
// name is the row's.
func checkTable[E ~int](t *testing.T, table nameTable[E], name func(E) string) {
	t.Helper()
	seen := map[string]E{}
	for _, r := range table.rows {
		if got := name(r.value); got != r.name {
			t.Errorf("%s table: value %d names %q, row says %q", table.unknown, int(r.value), got, r.name)
		}
		for _, s := range append([]string{r.name}, r.aliases...) {
			if prev, dup := seen[s]; dup {
				t.Errorf("%s table: spelling %q claimed by %d and %d", table.unknown, s, int(prev), int(r.value))
			}
			seen[s] = r.value
			for _, spelling := range []string{s, strings.ToUpper(s)} {
				if got, ok := table.parse(spelling); !ok || got != r.value {
					t.Errorf("%s table: parse(%q) = %d, %v; want %d", table.unknown, spelling, int(got), ok, int(r.value))
				}
			}
		}
	}
	if got, ok := table.parse("no-such-name"); ok {
		t.Errorf("%s table: parse of an unknown name returned %d", table.unknown, int(got))
	}
}

func TestNameTablesRoundTrip(t *testing.T) {
	checkTable(t, algorithmNames, Algorithm.Name)
	checkTable(t, cmNames, CMMode.Name)
	checkTable(t, lossNames, LossMode.Name)
	for _, s := range []string{"bitbybit", "alg2", "propose-noveto"} {
		if a, ok := ParseAlgorithm(s); !ok || a.Name() != algorithmNames.name(a) {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", s, a, ok)
		}
	}
	if m, ok := ParseLoss("probabilistic"); !ok || m != LossProbabilistic {
		t.Errorf("ParseLoss(probabilistic) = %d, %v", m, ok)
	}
}

// TestNameTablesUnknownValues: values outside a table keep the renderings
// records and errors have always used.
func TestNameTablesUnknownValues(t *testing.T) {
	for _, tc := range []struct{ got, want string }{
		{Algorithm(9).Name(), "alg(9)"},
		{Algorithm(-1).Name(), "alg(-1)"},
		{CMMode(9).Name(), "cm(9)"},
		{LossMode(9).Name(), "loss(9)"},
		{Algorithm(0).Name(), ""}, // BuildProc scenarios name no algorithm
		{Algorithm(0).String(), "algorithm(0)"},
		{Algorithm(9).String(), "algorithm(9)"},
		{AlgProposeNoVeto.String(), fmt.Sprintf("algorithm(%d)", int(AlgProposeNoVeto))},
		{AlgBitByBit.String(), "bit-by-bit (Alg 2)"},
		{fmt.Sprintf("%v", AlgLeaderRelay), "leader-relay (§7.3)"},
	} {
		if tc.got != tc.want {
			t.Errorf("got %q, want %q", tc.got, tc.want)
		}
	}
}

// TestPublicAlgorithms: exactly the paper's four algorithms are public.
func TestPublicAlgorithms(t *testing.T) {
	for a := Algorithm(-1); a <= AlgProposeNoVeto+1; a++ {
		want := a == AlgPropose || a == AlgBitByBit || a == AlgTreeWalk || a == AlgLeaderRelay
		if a.Public() != want {
			t.Errorf("Algorithm(%d).Public() = %v, want %v", int(a), a.Public(), want)
		}
	}
}
