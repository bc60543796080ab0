package parallel

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 10000} {
		for _, grain := range []int{0, 1, 3, 64, 100000} {
			hits := make([]int32, n)
			For(n, grain, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d grain=%d: index %d hit %d times", n, grain, i, h)
				}
			}
		}
	}
}

func TestForRangeChunksPartition(t *testing.T) {
	n := 100003
	var total int64
	var chunks int64
	ForRange(n, 1234, func(lo, hi int) {
		if lo >= hi {
			t.Errorf("empty chunk [%d,%d)", lo, hi)
		}
		if hi-lo > 1234 {
			t.Errorf("chunk [%d,%d) exceeds grain", lo, hi)
		}
		atomic.AddInt64(&total, int64(hi-lo))
		atomic.AddInt64(&chunks, 1)
	})
	if total != int64(n) {
		t.Fatalf("chunks cover %d indices, want %d", total, n)
	}
}

func TestBlocksPartition(t *testing.T) {
	for _, n := range []int{1, 5, 24, 1000, 99999} {
		for _, nb := range []int{1, 2, 7, 24, 200} {
			covered := make([]int32, n)
			Blocks(n, nb, func(b, lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&covered[i], 1)
				}
			})
			for i, c := range covered {
				if c != 1 {
					t.Fatalf("n=%d nb=%d: index %d covered %d times", n, nb, i, c)
				}
			}
		}
	}
}

func TestBlockRangeBalance(t *testing.T) {
	n, nb := 1000003, 24
	minSz, maxSz := n, 0
	prevHi := 0
	for b := 0; b < nb; b++ {
		lo, hi := BlockRange(n, nb, b)
		if lo != prevHi {
			t.Fatalf("block %d starts at %d, want %d", b, lo, prevHi)
		}
		sz := hi - lo
		minSz = min(minSz, sz)
		maxSz = max(maxSz, sz)
		prevHi = hi
	}
	if prevHi != n {
		t.Fatalf("blocks end at %d, want %d", prevHi, n)
	}
	if maxSz-minSz > 1 {
		t.Fatalf("imbalanced blocks: min %d max %d", minSz, maxSz)
	}
}

func TestReduceMatchesSequential(t *testing.T) {
	n := 100000
	got := Reduce(n, 97, 0, func(i int) int { return i * i % 1000 }, func(a, b int) int { return a + b })
	want := 0
	for i := 0; i < n; i++ {
		want += i * i % 1000
	}
	if got != want {
		t.Fatalf("reduce: got %d want %d", got, want)
	}
}

// TestReduceNonCommutative checks the fixed reduction tree: string
// concatenation (associative, not commutative) must equal sequential
// left-to-right folding.
func TestReduceNonCommutative(t *testing.T) {
	n := 500
	got := Reduce(n, 7, "",
		func(i int) string { return string(rune('a' + i%26)) },
		func(a, b string) string { return a + b })
	want := ""
	for i := 0; i < n; i++ {
		want += string(rune('a' + i%26))
	}
	if got != want {
		t.Fatalf("non-commutative reduce broke ordering:\n got %q\nwant %q", got[:50], want[:50])
	}
}

func TestPack(t *testing.T) {
	f := func(raw []int32) bool {
		keep := func(i int) bool { return raw[i]%3 == 0 }
		got := Pack(raw, keep)
		var want []int32
		for i, v := range raw {
			if keep(i) {
				want = append(want, v)
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCopyParallel(t *testing.T) {
	src := make([]uint64, 300000)
	for i := range src {
		src[i] = uint64(i) * 3
	}
	dst := make([]uint64, len(src))
	Copy(dst, src)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("copy mismatch at %d", i)
		}
	}
}

func TestSetWorkersRoundTrip(t *testing.T) {
	orig := Workers()
	prev := SetWorkers(2)
	if prev != orig {
		t.Fatalf("SetWorkers returned %d, want %d", prev, orig)
	}
	if Workers() != 2 {
		t.Fatalf("Workers()=%d after SetWorkers(2)", Workers())
	}
	SetWorkers(orig)
}
