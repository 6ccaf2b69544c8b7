package sim

import (
	"fmt"
	"slices"
	"strings"
)

// nameTable is the one place a parameter enum's names are spelled out:
// per value, the name trial records carry (sink.Params, and so the
// fingerprint), any further flag spellings that parse to it, and — for
// algorithms — the title the tools print. Records, flags and the public
// API all read these tables, so a name cannot drift between them.
type nameTable[E ~int] struct {
	// unknown prefixes the rendering of a value outside the table,
	// e.g. "alg(7)".
	unknown string
	rows    []nameRow[E]
}

type nameRow[E ~int] struct {
	value   E
	name    string
	aliases []string
	title   string
}

func (t nameTable[E]) row(v E) (nameRow[E], bool) {
	for _, r := range t.rows {
		if r.value == v {
			return r, true
		}
	}
	return nameRow[E]{}, false
}

func (t nameTable[E]) name(v E) string {
	if r, ok := t.row(v); ok {
		return r.name
	}
	return fmt.Sprintf("%s(%d)", t.unknown, int(v))
}

// parse maps a record name or flag spelling, case-insensitively, to its
// value.
func (t nameTable[E]) parse(s string) (E, bool) {
	s = strings.ToLower(s)
	for _, r := range t.rows {
		if s == r.name || slices.Contains(r.aliases, s) {
			return r.value, true
		}
	}
	return 0, false
}

var algorithmNames = nameTable[Algorithm]{unknown: "alg", rows: []nameRow[Algorithm]{
	{AlgPropose, "propose", []string{"alg1"}, "propose-veto (Alg 1)"},
	{AlgBitByBit, "bitbybit", []string{"alg2"}, "bit-by-bit (Alg 2)"},
	{AlgTreeWalk, "treewalk", []string{"alg3"}, "tree-walk (Alg 3)"},
	{AlgLeaderRelay, "leaderrelay", []string{"nonanon"}, "leader-relay (§7.3)"},
	// The A1 ablation has a record name but no public title.
	{AlgProposeNoVeto, "propose-noveto", nil, ""},
}}

var cmNames = nameTable[CMMode]{unknown: "cm", rows: []nameRow[CMMode]{
	{CMAuto, "auto", nil, ""},
	{CMWakeUp, "wakeup", nil, ""},
	{CMLeader, "leader", nil, ""},
	{CMBackoff, "backoff", nil, ""},
	{CMNone, "none", nil, ""},
}}

var lossNames = nameTable[LossMode]{unknown: "loss", rows: []nameRow[LossMode]{
	{LossNone, "none", nil, ""},
	{LossProbabilistic, "prob", []string{"probabilistic"}, ""},
	{LossCapture, "capture", nil, ""},
	{LossDrop, "drop", nil, ""},
}}

// Name is the algorithm's record name ("bitbybit"). The zero value — a
// scenario whose automata come from BuildProc — names no algorithm and
// renders empty.
func (a Algorithm) Name() string {
	if a == 0 {
		return ""
	}
	return algorithmNames.name(a)
}

// String is the algorithm's printed title ("bit-by-bit (Alg 2)"); values
// without one render as "algorithm(N)".
func (a Algorithm) String() string {
	if r, ok := algorithmNames.row(a); ok && r.title != "" {
		return r.title
	}
	return fmt.Sprintf("algorithm(%d)", int(a))
}

// Public reports whether a is one of the paper's four algorithms the public
// API exposes; the A1 ablation stays internal.
func (a Algorithm) Public() bool { return a >= AlgPropose && a <= AlgLeaderRelay }

// Name is the contention manager's record name ("wakeup").
func (m CMMode) Name() string { return cmNames.name(m) }

// Name is the loss model's record name ("prob").
func (m LossMode) Name() string { return lossNames.name(m) }

// ParseAlgorithm maps a record name or flag spelling ("bitbybit", "alg2"),
// case-insensitively, to its algorithm.
func ParseAlgorithm(s string) (Algorithm, bool) { return algorithmNames.parse(s) }

// ParseLoss maps a record name or flag spelling ("prob", "probabilistic"),
// case-insensitively, to its loss model.
func ParseLoss(s string) (LossMode, bool) { return lossNames.parse(s) }
