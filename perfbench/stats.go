package main

import (
	"fmt"
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest sample with at least p% of the samples at or below it. It
// never interpolates, so the value is always one that was measured.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the 50th nearest-rank percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// beyond counts the samples strictly above the nearest-rank p-th
// percentile's rank, i.e. how many measurements the percentile rests on
// from above. A percentile is reported only when this is at least
// minBeyond.
func beyond(n int, p float64) int {
	rank := int(math.Ceil(p / 100 * float64(n)))
	return n - rank
}

// minBeyond is how many samples must lie beyond a reported tail
// percentile.
const minBeyond = 10

// samplesFor is the smallest sample count whose nearest-rank p-th
// percentile has minBeyond samples beyond it.
func samplesFor(p float64) int {
	n := 1
	for beyond(n, p) < minBeyond {
		n++
	}
	return n
}

// ratio divides a measured quantity by its base, refusing a zero base
// instead of printing Inf or NaN as a metric.
func ratio(num, base float64) (float64, error) {
	if base == 0 {
		return 0, fmt.Errorf("ratio with a zero base (numerator %g)", num)
	}
	return num / base, nil
}

// span is one traced interval: a call into a layer, made from the
// benchmark's own code. Times are nanoseconds on the monotonic clock since
// the trace began. AggNs is time inside the span spent in children that
// were counted and timed in aggregate (per-call spans would be millions per
// run) rather than recorded as intervals.
type span struct {
	ID, Parent int64
	Name       string
	Start, End int64
	AggNs      int64
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its child spans (overlapping children, such as
// per-trial spans on parallel workers, count once) and minus its aggregated
// child time.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID]) - s.AggNs
	}
	return self
}

// covered measures the union of the children's intervals clipped to the
// parent's.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// sumBy totals a function of every span with the given name.
func sumBy(spans []span, name string, f func(span) int64) int64 {
	var t int64
	for _, s := range spans {
		if s.Name == name {
			t += f(s)
		}
	}
	return t
}

// countOf is how many spans carry the given name.
func countOf(spans []span, name string) int64 {
	return sumBy(spans, name, func(span) int64 { return 1 })
}
