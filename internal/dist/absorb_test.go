package dist

import (
	"testing"

	"repro/internal/hashutil"
)

// The absorbing engines' contract, pinned against a naive reference:
// records the fill pass absorbs are consumed in subarray input order and
// never scattered; the survivors land stably, grouped by bucket, with their
// hashes carried in lockstep, into a destination sized by the caller at the
// exact survivor count.

type absRec struct {
	k   uint64
	seq int32
}

// absorbClassify classifies record hashes to bucket h%nB, absorbing records
// whose hash is divisible by `every` (every == 0 absorbs nothing).
func absorbClassify(h uint64, nB, every int) uint16 {
	if every > 0 && h%uint64(every) == 0 {
		return Absorbed
	}
	return uint16(h % uint64(nB))
}

// refAbsorb computes the expected outcome sequentially: kept records stably
// grouped by bucket, absorbed sequence numbers in input order.
func refAbsorb(src []absRec, hs []uint64, nB, every int) (dst []absRec, hdst []uint64, starts []int, absorbed []int32) {
	counts := make([]int, nB)
	for i := range src {
		if b := absorbClassify(hs[i], nB, every); b == Absorbed {
			absorbed = append(absorbed, src[i].seq)
		} else {
			counts[b]++
		}
	}
	starts = make([]int, nB+1)
	sum := 0
	for b := 0; b < nB; b++ {
		starts[b] = sum
		sum += counts[b]
	}
	starts[nB] = sum
	dst = make([]absRec, sum)
	hdst = make([]uint64, sum)
	cur := append([]int(nil), starts[:nB]...)
	for i := range src {
		b := absorbClassify(hs[i], nB, every)
		if b == Absorbed {
			continue
		}
		dst[cur[b]] = src[i]
		hdst[cur[b]] = hs[i]
		cur[b]++
	}
	return
}

func makeAbsInput(n int) ([]absRec, []uint64) {
	src := make([]absRec, n)
	hs := make([]uint64, n)
	for i := range src {
		h := hashutil.Mix64(uint64(i) + 12345)
		src[i] = absRec{k: h, seq: int32(i)}
		hs[i] = h
	}
	return src, hs
}

func TestAbsorbEnginesMatchReference(t *testing.T) {
	for _, tc := range []struct {
		name      string
		n, nB, l  int
		every     int
		keyed     bool
		parallelE bool
	}{
		{"serial-keyed", 5000, 16, 0, 3, true, false},
		{"serial-plain", 5000, 16, 0, 3, false, false},
		{"serial-none-absorbed", 2000, 8, 0, 0, true, false},
		{"serial-all-absorbed", 2000, 8, 0, 1, true, false},
		{"serial-one-bucket", 3000, 1, 0, 4, true, false},
		{"parallel-keyed", 40000, 64, 1000, 5, true, true},
		{"parallel-plain", 40000, 64, 1000, 5, false, true},
		{"parallel-short-tail", 40001, 32, 1024, 2, true, true},
		{"parallel-n-lt-l", 100, 8, 4096, 3, true, true},
		{"parallel-all-absorbed", 30000, 16, 512, 1, true, true},
		{"empty", 0, 4, 16, 2, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, hs := makeAbsInput(tc.n)
			wantDst, wantH, wantStarts, wantAbs := refAbsorb(src, hs, tc.nB, tc.every)

			var hsrcArg []uint64
			if tc.keyed {
				hsrcArg = hs
			}
			var dst []absRec
			var hdst []uint64
			destCalls := 0
			dest := func(kept int) ([]absRec, []uint64) {
				destCalls++
				if kept != wantStarts[tc.nB] {
					t.Errorf("dest called with kept=%d, want %d", kept, wantStarts[tc.nB])
				}
				dst = make([]absRec, kept)
				if tc.keyed {
					hdst = make([]uint64, kept)
				}
				return dst, hdst
			}
			starts := make([]int, tc.nB+1)
			// Absorbed records are collected per subarray (fill chunks run
			// concurrently) and flattened in subarray order afterwards —
			// exactly the ordering discipline collect-reduce relies on.
			l := tc.l
			if l < 1 {
				l = 1
			}
			absBySub := make([][]int32, NumSubarrays(tc.n, l)+1)
			fillChunk := func(lo, hi int, ids []uint16, row []int32) {
				sub := lo / l
				for j := lo; j < hi; j++ {
					b := absorbClassify(hs[j], tc.nB, tc.every)
					ids[j-lo] = b
					if b == Absorbed {
						absBySub[sub] = append(absBySub[sub], src[j].seq)
					} else {
						row[b]++
					}
				}
			}
			if tc.parallelE {
				StableAbsorbInto(nil, src, hsrcArg, tc.nB, tc.l, tc.nB, fillChunk, starts, dest)
			} else {
				SerialAbsorbInto(nil, src, hsrcArg, tc.nB, tc.nB, func(ids []uint16, counts []int32) {
					fillChunk(0, tc.n, ids, counts)
				}, starts, dest)
			}
			var gotAbs []int32
			for _, s := range absBySub {
				gotAbs = append(gotAbs, s...)
			}

			if destCalls != 1 {
				t.Fatalf("dest called %d times, want exactly once", destCalls)
			}
			for b := 0; b <= tc.nB; b++ {
				if starts[b] != wantStarts[b] {
					t.Fatalf("starts[%d] = %d, want %d", b, starts[b], wantStarts[b])
				}
			}
			for i := range wantDst {
				if dst[i] != wantDst[i] {
					t.Fatalf("dst[%d] = %+v, want %+v (stability or routing broken)", i, dst[i], wantDst[i])
				}
				if tc.keyed && hdst[i] != wantH[i] {
					t.Fatalf("hdst[%d] = %d, want %d (hash not carried in lockstep)", i, hdst[i], wantH[i])
				}
			}
			if len(gotAbs) != len(wantAbs) {
				t.Fatalf("absorbed %d records, want %d", len(gotAbs), len(wantAbs))
			}
			// Subarray-order flattening of per-subarray input-order chunks
			// is global input order (subarrays are consecutive).
			for i := range gotAbs {
				if gotAbs[i] != wantAbs[i] {
					t.Fatalf("absorbed[%d] = %d, want %d (input order broken)", i, gotAbs[i], wantAbs[i])
				}
			}
		})
	}
}

// TestAbsorbSourceNeverWritten pins that the engines treat src and hsrc as
// read-only (collect-reduce passes the user's input directly).
func TestAbsorbSourceNeverWritten(t *testing.T) {
	n, nB := 10000, 8
	src, hs := makeAbsInput(n)
	srcCopy := append([]absRec(nil), src...)
	hsCopy := append([]uint64(nil), hs...)
	starts := make([]int, nB+1)
	dest := func(kept int) ([]absRec, []uint64) {
		return make([]absRec, kept), make([]uint64, kept)
	}
	StableAbsorbInto(nil, src, hs, nB, 512, nB, func(lo, hi int, ids []uint16, row []int32) {
		for j := lo; j < hi; j++ {
			b := absorbClassify(hs[j], nB, 2)
			ids[j-lo] = b
			if b != Absorbed {
				row[b]++
			}
		}
	}, starts, dest)
	for i := range src {
		if src[i] != srcCopy[i] || hs[i] != hsCopy[i] {
			t.Fatalf("engine wrote to src/hsrc at %d", i)
		}
	}
}
