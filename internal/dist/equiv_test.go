package dist

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// Equivalence tests for the distribution engine: every entry point — the
// parallel and serial id-plane forms (2-byte and byte-wide ids), the
// absorbing forms, and the Stable/Serial closure wrappers — must produce
// output identical to a naive stable reference across the edge shapes of
// the engine (single bucket, single subarray, one crowded bucket, maximal
// and empty buckets, a dead hLive suffix, absorbed records), and none may
// write its source.

type erec struct {
	b   int // bucket; negative means the fill pass absorbs the record
	seq int
}

// refDistribute is the obviously correct stable distribution: emit bucket
// by bucket in input order, dropping absorbed records.
func refDistribute(src []erec, nB int) (dst []erec, starts []int) {
	dst = make([]erec, 0, len(src))
	starts = make([]int, nB+1)
	for b := 0; b < nB; b++ {
		starts[b] = len(dst)
		for _, r := range src {
			if r.b == b {
				dst = append(dst, r)
			}
		}
	}
	starts[nB] = len(dst)
	return dst, starts
}

// hashOf is the synthetic side payload the keyed forms must permute in
// lockstep with the records.
func hashOf(r erec) uint64 { return uint64(r.seq)*0x9e3779b97f4a7c15 + uint64(r.b) }

// sentinel pre-fills every side destination: positions in the dead hLive
// suffix must still hold it afterwards.
const sentinel = 0xdeadbeefcafef00d

func newHdst(n int) []uint64 {
	h := make([]uint64, n)
	for i := range h {
		h[i] = sentinel
	}
	return h
}

// fillRange is the parallel fill pass: bucket ids from erec.b, Absorbed
// (uncounted) for negative buckets.
func fillRange(src []erec) func(lo, hi int, ids []uint16, row []int32) {
	return func(lo, hi int, ids []uint16, row []int32) {
		for j := lo; j < hi; j++ {
			if src[j].b < 0 {
				ids[j-lo] = Absorbed
				continue
			}
			ids[j-lo] = uint16(src[j].b)
			row[src[j].b]++
		}
	}
}

// engine is one entry point under test. keyed forms carry the side array
// (and honour hLive); absorbing forms accept Absorbed ids and size their
// destination through dest; maxB is the largest nB the form accepts.
type engine struct {
	name             string
	keyed, absorbing bool
	maxB             int
	run              func(src []erec, hsrc []uint64, nB, l, hLive int) ([]erec, []uint64, []int)
}

func engines() []engine {
	bucketOf := func(src []erec) func(int) int { return func(i int) int { return src[i].b } }
	dest := func(kept int) ([]erec, []uint64) { return make([]erec, kept), newHdst(kept) }
	return []engine{
		{"Stable", false, false, MaxBuckets, func(src []erec, _ []uint64, nB, l, _ int) ([]erec, []uint64, []int) {
			dst := make([]erec, len(src))
			return dst, nil, Stable(nil, src, dst, nB, l, bucketOf(src))
		}},
		{"Serial", false, false, MaxBuckets, func(src []erec, _ []uint64, nB, _, _ int) ([]erec, []uint64, []int) {
			dst := make([]erec, len(src))
			return dst, nil, Serial(src, dst, nB, bucketOf(src))
		}},
		{"StableFilledInto", true, false, MaxBuckets, func(src []erec, hsrc []uint64, nB, l, hLive int) ([]erec, []uint64, []int) {
			dst, hdst := make([]erec, len(src)), newHdst(len(src))
			return dst, hdst, StableFilledInto(nil, src, dst, hsrc, hdst, nB, l, hLive, fillRange(src), make([]int, nB+1))
		}},
		{"SerialFilledInto", true, false, MaxBuckets, func(src []erec, hsrc []uint64, nB, _, hLive int) ([]erec, []uint64, []int) {
			dst, hdst := make([]erec, len(src)), newHdst(len(src))
			fill := func(ids []uint16, counts []int32) { fillRange(src)(0, len(src), ids, counts) }
			return dst, hdst, SerialFilledInto(nil, src, dst, hsrc, hdst, nB, hLive, fill, make([]int, nB+1))
		}},
		{"SerialFilledInto/byte", true, false, 1 << 8, func(src []erec, hsrc []uint64, nB, _, hLive int) ([]erec, []uint64, []int) {
			dst, hdst := make([]erec, len(src)), newHdst(len(src))
			fill := func(ids []uint8, counts []int32) {
				for i, r := range src {
					ids[i] = uint8(r.b)
					counts[r.b]++
				}
			}
			return dst, hdst, SerialFilledInto(nil, src, dst, hsrc, hdst, nB, hLive, fill, make([]int, nB+1))
		}},
		{"StableAbsorbInto", true, true, MaxBuckets - 1, func(src []erec, hsrc []uint64, nB, l, hLive int) (dst []erec, hdst []uint64, starts []int) {
			starts = StableAbsorbInto(nil, src, hsrc, nB, l, hLive, fillRange(src), make([]int, nB+1),
				func(kept int) ([]erec, []uint64) { dst, hdst = dest(kept); return dst, hdst })
			return dst, hdst, starts
		}},
		{"SerialAbsorbInto", true, true, MaxBuckets - 1, func(src []erec, hsrc []uint64, nB, _, hLive int) (dst []erec, hdst []uint64, starts []int) {
			fill := func(ids []uint16, counts []int32) { fillRange(src)(0, len(src), ids, counts) }
			starts = SerialAbsorbInto(nil, src, hsrc, nB, hLive, fill, make([]int, nB+1),
				func(kept int) ([]erec, []uint64) { dst, hdst = dest(kept); return dst, hdst })
			return dst, hdst, starts
		}},
	}
}

// checkAllVariants distributes src through every entry point that accepts
// the shape and checks each against the reference: starts, stable record
// order, side values carried below hLive and untouched from starts[hLive]
// on, and src/hsrc unchanged. It reports the first mismatch.
func checkAllVariants(src []erec, nB, l, hLive int) error {
	want, wantStarts := refDistribute(src, nB)
	absorbs := len(want) < len(src)
	hsrc := make([]uint64, len(src))
	for i, r := range src {
		hsrc[i] = hashOf(r)
	}
	srcCopy, hsrcCopy := append([]erec(nil), src...), append([]uint64(nil), hsrc...)
	for _, e := range engines() {
		if nB > e.maxB || (absorbs && !e.absorbing) {
			continue
		}
		dst, hdst, starts := e.run(src, hsrc, nB, l, hLive)
		for i := range wantStarts {
			if starts[i] != wantStarts[i] {
				return fmt.Errorf("%s: starts[%d]=%d want %d", e.name, i, starts[i], wantStarts[i])
			}
		}
		for i := range want {
			if dst[i] != want[i] {
				return fmt.Errorf("%s: dst[%d]=%v want %v", e.name, i, dst[i], want[i])
			}
			live := i < wantStarts[hLive]
			if e.keyed && live && hdst[i] != hashOf(want[i]) {
				return fmt.Errorf("%s: live side value at %d is %#x, want %#x", e.name, i, hdst[i], hashOf(want[i]))
			}
			if e.keyed && !live && hdst[i] != sentinel {
				return fmt.Errorf("%s: dead-suffix side value at %d was written", e.name, i)
			}
		}
		for i := range src {
			if src[i] != srcCopy[i] || hsrc[i] != hsrcCopy[i] {
				return fmt.Errorf("%s: engine wrote its source at %d", e.name, i)
			}
		}
	}
	return nil
}

func runAllVariants(t *testing.T, label string, src []erec, nB, l, hLive int) {
	t.Helper()
	if err := checkAllVariants(src, nB, l, hLive); err != nil {
		t.Fatalf("%s/%v", label, err)
	}
}

func makeSrc(n, nB int, seed int64) []erec {
	rng := rand.New(rand.NewSource(seed))
	src := make([]erec, n)
	for i := range src {
		src[i] = erec{b: rng.Intn(nB), seq: i}
	}
	return src
}

// TestHLiveDeadSuffixUntouched pins the skew-adaptive scatter contract the
// semisort core relies on: records landing in buckets >= hLive (final heavy
// buckets) must not move their side-array values — the scatter may not even
// write those hdst positions — in every keyed form.
func TestHLiveDeadSuffixUntouched(t *testing.T) {
	runAllVariants(t, "hLive=400", makeSrc(6000, 600, 17), 600, 128, 400)
	runAllVariants(t, "hLive=0", makeSrc(3000, 16, 18), 16, 256, 0)
}

func TestDistributeVariantsMatchReferenceEdgeShapes(t *testing.T) {
	withBuckets := func(src []erec, f func(r erec) int) []erec {
		for i := range src {
			src[i].b = f(src[i])
		}
		return src
	}
	cases := []struct {
		label        string
		src          []erec
		nB, l, hLive int
	}{
		{"empty", nil, 4, 16, 4},
		{"single-bucket-nB=1", makeSrc(1000, 1, 1), 1, 64, 1},
		{"n<l-single-subarray", makeSrc(200, 16, 2), 16, 4096, 16},
		{"all-one-bucket", withBuckets(makeSrc(3000, 1, 3), func(erec) int { return 7 }), 16, 128, 16},
		{"nB=MaxBuckets-sparse", withBuckets(makeSrc(2000, 4, 4), func(r erec) int { return (r.seq * 31) % MaxBuckets }), MaxBuckets, 256, MaxBuckets},
		{"empty-buckets", withBuckets(makeSrc(2500, 3, 5), func(r erec) int { return []int{0, 150, 299}[r.b] }), 300, 128, 300},
		{"byte-id-cache-nB=256", makeSrc(5000, 256, 6), 256, 512, 256},
		{"word-id-cache-nB=257", makeSrc(5000, 257, 7), 257, 512, 257},
		{"nB=1024-13-subarrays", makeSrc(50000, 1024, 8), 1024, 4096, 1024},
		{"many-subarrays-l=1", makeSrc(700, 8, 9), 8, 1, 8},
		{"absorbed-sentinel", withBuckets(makeSrc(5000, 12, 10), func(r erec) int { return r.b - 4 }), 8, 512, 8},
		{"all-absorbed", withBuckets(makeSrc(900, 1, 11), func(erec) int { return -1 }), 8, 128, 8},
	}
	for _, c := range cases {
		runAllVariants(t, c.label, c.src, c.nB, c.l, c.hLive)
	}
}

func TestDistributeVariantsMatchReferenceRandom(t *testing.T) {
	f := func(raw []uint16, nbSeed, lSeed uint8) bool {
		nB := 1 + int(nbSeed)%512
		l := 1 + int(lSeed)*7
		src := make([]erec, len(raw))
		for i, v := range raw {
			src[i] = erec{b: int(v) % nB, seq: i}
		}
		return checkAllVariants(src, nB, l, nB) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDistributeEquivalence drives the same equivalence from fuzzed bucket
// assignments (run with `go test -fuzz FuzzDistributeEquivalence` to
// explore; the seed corpus runs as a normal test).
func FuzzDistributeEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 250, 250, 250}, uint8(4), uint8(3))
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7}, uint8(1), uint8(0))
	f.Add([]byte{}, uint8(9), uint8(9))
	f.Fuzz(func(t *testing.T, raw []byte, nbSeed, lSeed uint8) {
		if len(raw) > 1<<12 {
			raw = raw[:1<<12]
		}
		nB := 1 + int(nbSeed)
		l := 1 + int(lSeed)
		src := make([]erec, len(raw))
		for i, v := range raw {
			src[i] = erec{b: int(v) % nB, seq: i}
		}
		runAllVariants(t, "fuzz", src, nB, l, nB)
	})
}
