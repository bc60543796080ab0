package parallel_test

import (
	"runtime"
	"runtime/metrics"
	"testing"
	"unsafe"

	semisort "repro"
	"repro/internal/israce"
)

func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestArenaSurvivesGC: the byte classes are held across garbage
// collections, so a call on a warmed runtime still finds its O(n) scratch
// after two GCs (which empty every sync.Pool). SortEq then allocates next
// to nothing, and Dedup and Histogram allocate their output plus a fixed
// slack; with sync.Pool free lists each call re-allocated over 40 B/rec.
func TestArenaSurvivesGC(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation bounds are meaningless under -race instrumentation")
	}
	type rec struct{ K, V uint64 }
	const n = 1 << 17
	in := make([]rec, n)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range in {
		x = x*6364136223846793005 + 1442695040888963407
		in[i] = rec{K: (x >> 11) % (n + 1), V: uint64(i)}
	}
	rt := semisort.NewRuntime(2)
	defer rt.Close()
	o := semisort.WithRuntime(rt)
	key := func(r rec) uint64 { return r.K }
	eq := func(a, b uint64) bool { return a == b }

	// afterGC warms the arena, collects twice and returns the heap bytes
	// one more call allocates.
	afterGC := func(prep, call func()) uint64 {
		for i := 0; i < 3; i++ {
			prep()
			call()
		}
		prep()
		runtime.GC()
		runtime.GC()
		a0 := heapAllocBytes()
		call()
		got := heapAllocBytes() - a0
		t.Logf("%.2f B/rec after GC", float64(got)/n)
		return got
	}
	nop := func() {}
	const slack = 512 << 10

	work := make([]rec, n)
	got := afterGC(func() { copy(work, in) }, func() { semisort.SortEq(work, key, semisort.Hash64, eq, o) })
	if got >= n {
		t.Errorf("SortEq after GC: %d B (%.2f B/rec), want under 1 B/rec", got, float64(got)/n)
	}

	var kept []rec
	got = afterGC(nop, func() { kept = semisort.Dedup(in, key, semisort.Hash64, eq, o) })
	if want := uint64(len(kept))*uint64(unsafe.Sizeof(kept[0])) + slack; got > want {
		t.Errorf("Dedup after GC: %d B (%.2f B/rec), want at most its %d-record output plus %d B",
			got, float64(got)/n, len(kept), slack)
	}

	var hist []semisort.KeyCount[uint64]
	got = afterGC(nop, func() { hist = semisort.Histogram(in, key, semisort.Hash64, eq, o) })
	if want := uint64(len(hist))*uint64(unsafe.Sizeof(hist[0])) + slack; got > want {
		t.Errorf("Histogram after GC: %d B (%.2f B/rec), want at most its %d-key output plus %d B",
			got, float64(got)/n, len(hist), slack)
	}
}
