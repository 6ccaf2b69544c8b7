package seedstream

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// edgeSeeds exercise every branch of math/rand's seed normalization:
// zero and the values that reduce to it, negatives, the replacement
// constant itself, and seeds far outside the int32 range.
var edgeSeeds = []int64{
	0, 1, -1, math.MaxInt32, -math.MaxInt32, math.MaxInt32 - 1, math.MaxInt32 + 1,
	seedZero, -seedZero, 1 << 40, -(1 << 62), math.MaxInt64, math.MinInt64,
}

// drawsPastRegister crosses both structural boundaries of the source:
// draw 274 (first tap read of a written word, where the register is
// built) and draw 608 (first wrap of the tap index).
const drawsPastRegister = 1500

// randomSeeds returns n seeds spread over the whole int64 range.
func randomSeeds(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(Mix64(uint64(i) * 0x2545F4914F6CDD1D))
	}
	return out
}

// TestLehmerMatchesSchrage pins the Mersenne-reduced Lehmer step to
// math/rand's Schrage step over the boundary and a sample of states.
func TestLehmerMatchesSchrage(t *testing.T) {
	schrage := func(x int32) int32 {
		const q, r = 44488, 3399
		hi, lo := x/q, x%q
		x = lehmerA*lo - r*hi
		if x < 0 {
			x += int32max
		}
		return x
	}
	states := []int32{1, 2, lehmerA, 44488, 44489, int32max - 2, int32max - 1, seedZero}
	for i := 0; i < 20000; i++ {
		states = append(states, int32(Mix64(uint64(i))%(int32max-1))+1)
	}
	for _, x := range states {
		if got, want := lehmer(uint64(x)), schrage(x); got != uint64(want) {
			t.Fatalf("lehmer(%d) = %d, Schrage step gives %d", x, got, want)
		}
	}
}

// TestLehmerPowIsTheSeedingWalk checks the jump table against stepping:
// x₀·lehmerPow[j] must be the (seedSkip+1+j)-th Lehmer state after x₀.
func TestLehmerPowIsTheSeedingWalk(t *testing.T) {
	for _, x0 := range []uint64{1, 7, seedZero, int32max - 1} {
		x := x0
		for i := 0; i < seedSkip; i++ {
			x = lehmer(x)
		}
		for j := range lehmerPow {
			x = lehmer(x)
			if got := mulmod(x0, uint64(lehmerPow[j])); got != x {
				t.Fatalf("x0=%d: jump %d gives %d, walk gives %d", x0, j, got, x)
			}
		}
	}
}

// requireSameStream draws n values through f from both generators and
// fails on the first difference.
func requireSameStream[T comparable](t *testing.T, what string, seed int64, n int, f func(*rand.Rand) T) {
	t.Helper()
	want := rand.New(rand.NewSource(seed))
	got := NewRandV1(seed)
	for i := 0; i < n; i++ {
		if g, w := f(got), f(want); g != w {
			t.Fatalf("seed %d: %s draw %d = %v, math/rand gives %v", seed, what, i+1, g, w)
		}
	}
}

// TestRandV1EdgeSeeds compares every draw method on the edge seeds past
// the register boundaries.
func TestRandV1EdgeSeeds(t *testing.T) {
	for _, seed := range edgeSeeds {
		requireSameStream(t, "Int63", seed, drawsPastRegister, (*rand.Rand).Int63)
		requireSameStream(t, "Uint64", seed, drawsPastRegister, (*rand.Rand).Uint64)
		requireSameStream(t, "Float64", seed, drawsPastRegister, (*rand.Rand).Float64)
		requireSameStream(t, "Intn", seed, drawsPastRegister, func(r *rand.Rand) int { return r.Intn(1000) })
		requireSameStream(t, "Int31n", seed, drawsPastRegister, func(r *rand.Rand) int32 { return r.Int31n(1<<30 + 7) })
		requireSameStream(t, "Int63n", seed, drawsPastRegister, func(r *rand.Rand) int64 { return r.Int63n(1<<62 + 3) })
	}
}

// TestRandV1RandomSeeds compares thousands of seeds, each drawn past
// both boundaries, mixing the draw methods the simulator uses.
func TestRandV1RandomSeeds(t *testing.T) {
	seeds := randomSeeds(2000)
	if testing.Short() {
		seeds = seeds[:200]
	}
	for _, seed := range seeds {
		want := rand.New(rand.NewSource(seed))
		got := NewRandV1(seed)
		for i := 0; i < 700; i++ {
			var g, w float64
			switch i % 4 {
			case 0:
				g, w = got.Float64(), want.Float64()
			case 1:
				g, w = float64(got.Intn(97)), float64(want.Intn(97))
			case 2:
				g, w = float64(got.Int31n(1<<20)), float64(want.Int31n(1<<20))
			default:
				g, w = float64(got.Int63()), float64(want.Int63())
			}
			if g != w {
				t.Fatalf("seed %d: draw %d = %v, math/rand gives %v", seed, i+1, g, w)
			}
		}
	}
}

// TestRandV1ShortStreams covers every lazy-phase length: a trial that
// stops at draw d must have seen exactly math/rand's first d values, and
// a source that goes on after any lazy prefix must stay in step.
func TestRandV1ShortStreams(t *testing.T) {
	for d := 0; d <= rngTap+2; d++ {
		want := rand.New(rand.NewSource(int64(d) * 7919))
		got := NewRandV1(int64(d) * 7919)
		for i := 0; i < d+rngLen; i++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("prefix %d: draw %d = %d, math/rand gives %d", d, i+1, g, w)
			}
		}
	}
}

// TestRandV1Reseed calls Seed on sources in every state — fresh, lazy,
// and materialized — and requires the stream to restart exactly as
// math/rand's does, reusing the register without leaking old words.
func TestRandV1Reseed(t *testing.T) {
	for _, used := range []int{0, 5, rngTap, rngTap + 1, 1000} {
		want := rand.New(rand.NewSource(3))
		got := NewRandV1(3)
		for i := 0; i < used; i++ {
			got.Int63()
			want.Int63()
		}
		for _, seed := range []int64{11, 0, -(1 << 62)} {
			want.Seed(seed)
			got.Seed(seed)
			for i := 0; i < drawsPastRegister; i++ {
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("after %d draws, Seed(%d): draw %d = %d, math/rand gives %d", used, seed, i+1, g, w)
				}
			}
		}
	}
}

// FuzzRandV1MatchesStdlib draws up to a few register lengths from both
// generators for arbitrary seeds.
func FuzzRandV1MatchesStdlib(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed, uint16(drawsPastRegister))
	}
	f.Add(int64(42), uint16(rngTap))
	f.Add(int64(42), uint16(rngTap+1))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		n := int(draws) % (3 * rngLen)
		want := rand.New(rand.NewSource(seed))
		got := NewRandV1(seed)
		for i := 0; i < n; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: draw %d = %d, math/rand gives %d", seed, i+1, g, w)
			}
		}
	})
}

// BenchmarkRandV1 prices a whole v1 stream — construction plus draws —
// against math/rand: 48 draws is a small sweep trial's loss stream,
// 1000 draws goes through the register build at draw 274.
func BenchmarkRandV1(b *testing.B) {
	for _, draws := range []int{48, 1000} {
		for _, impl := range []struct {
			name string
			new  func(int64) *rand.Rand
		}{
			{"stdlib", func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }},
			{"seedstream", NewRandV1},
		} {
			b.Run(impl.name+"/draws="+strconv.Itoa(draws), func(b *testing.B) {
				b.ReportAllocs()
				var sink float64
				for i := 0; i < b.N; i++ {
					r := impl.new(int64(i))
					for d := 0; d < draws; d++ {
						sink += r.Float64()
					}
				}
				if sink < 0 {
					b.Fatal(sink)
				}
			})
		}
	}
}
