package main

import (
	"fmt"
	"io"
	"time"
)

// floors are the host's own rates, measured in this process before the
// workload runs, one thread each: what a layer doing the same memory or
// hashing work could reach at best on this machine.
type floors struct {
	n, bytes     int
	copyGBs      float64 // sequential copy
	scatterMrecs float64 // 16-byte records written to random positions
	hashMkeys    float64 // inline 64-bit mix over 64-bit keys
}

func calibrate(w io.Writer, n int) floors {
	src := make([]rec64, n)
	dst := make([]rec64, n)
	perm := make([]int32, n)
	r := rng{0xca1}
	for i := range src {
		src[i] = rec64{K: r.next(), V: uint64(i)}
		perm[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.below(uint64(i + 1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	fl := floors{n: n, bytes: n * 16}
	copy(dst, src) // fault the pages in before timing
	fl.copyGBs = float64(fl.bytes) / medianTime(5, func() { copy(dst, src) }) / 1e9
	fl.scatterMrecs = float64(n) / medianTime(3, func() {
		for i, p := range perm {
			dst[p] = src[i]
		}
	}) / 1e6
	var sink uint64
	fl.hashMkeys = float64(n) / medianTime(5, func() {
		for i := range src {
			sink += mix(src[i].K + 0x9e3779b97f4a7c15)
		}
	}) / 1e6
	hashSink = sink
	fmt.Fprintf(w, "host floors (one thread; %s arrays against the L2/L3 above):\n", fmtBytes(float64(fl.bytes)))
	fmt.Fprintf(w, "  copy %.2f GB/s, random 16-byte scatter %.1f Mrec/s, 64-bit mix %.0f Mkey/s\n",
		fl.copyGBs, fl.scatterMrecs, fl.hashMkeys)
	return fl
}

// medianTime returns the median seconds of reps timed runs of fn.
func medianTime(reps int, fn func()) float64 {
	v := make([]float64, reps)
	for i := range v {
		t0 := time.Now()
		fn()
		v[i] = time.Since(t0).Seconds()
	}
	return median(v)
}
