package parallel

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

func TestGetBufSizing(t *testing.T) {
	var sc Scratch
	b := GetBuf[int32](&sc, 100)
	if len(b.S) != 100 {
		t.Fatalf("buffer length %d, want 100", len(b.S))
	}
	for i := range b.S {
		b.S[i] = int32(i)
	}
	b.Release()
	// A bigger request after release must grow.
	b2 := GetBuf[int32](&sc, 5000)
	if len(b2.S) != 5000 {
		t.Fatalf("buffer length %d, want 5000", len(b2.S))
	}
	b2.Release()
}

func TestGetBufReusesAcrossCalls(t *testing.T) {
	var sc Scratch
	b := GetBuf[uint16](&sc, 1<<12)
	p := &b.S[0]
	b.Release()
	// Two GCs empty every sync.Pool; the byte classes keep the block.
	runtime.GC()
	runtime.GC()
	b2 := GetBuf[uint16](&sc, 1<<12)
	if &b2.S[0] != p {
		t.Fatal("an 8 KiB lease did not reuse the block released before two GCs")
	}
	b2.Release()
}

func TestGetBufDistinctTypesDoNotMix(t *testing.T) {
	var sc Scratch
	a := GetBuf[int32](&sc, 64)
	b := GetBuf[uint32](&sc, 64)
	a.S[0], b.S[0] = 7, 9
	if a.S[0] != 7 || b.S[0] != 9 {
		t.Fatal("typed pools aliased")
	}
	a.Release()
	b.Release()
}

// TestGetBufConcurrent: leases from the byte classes (256+ ints are 2 KiB
// and up) never share a block, while other goroutines release and sweep.
func TestGetBufConcurrent(t *testing.T) {
	var sc Scratch
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if i%50 == g {
					sc.sweep(sc.clock())
				}
				b := GetBuf[int](&sc, 256+i)
				for j := range b.S {
					b.S[j] = g
				}
				for j := range b.S {
					if b.S[j] != g {
						t.Errorf("buffer shared between goroutines")
						break
					}
				}
				b.Release()
			}
		}(g)
	}
	wg.Wait()
}

func TestGetObjRoundTrip(t *testing.T) {
	type scratchObj struct{ xs []int }
	var sc Scratch
	o := GetObj[scratchObj](&sc)
	if o == nil || o.xs != nil {
		t.Fatal("fresh object must be zero-valued")
	}
	o.xs = append(o.xs, 1, 2, 3)
	PutObj(&sc, o)
	o2 := GetObj[scratchObj](&sc)
	// Either the recycled object (with state) or a fresh one; both usable.
	_ = o2
}

func TestZero(t *testing.T) {
	var sc Scratch
	b := GetBuf[int64](&sc, 32)
	for i := range b.S {
		b.S[i] = 5
	}
	b.Zero()
	for i := range b.S {
		if b.S[i] != 0 {
			t.Fatal("Zero left data behind")
		}
	}
	b.Release()
}

func TestSlottedLanesDisjointAndPadded(t *testing.T) {
	var sc Scratch
	sl := GetSlotted[uint32](&sc, 4, 10)
	defer sl.Release()
	sl.Zero()
	for w := 0; w < 4; w++ {
		lane := sl.Lane(w)
		if len(lane) != 10 {
			t.Fatalf("lane length %d want 10", len(lane))
		}
		for i := range lane {
			lane[i] = uint32(w + 1)
		}
	}
	// Writes through one lane must never reach another (full-length writes
	// above would trample neighbours if strides overlapped).
	for w := 0; w < 4; w++ {
		for i, v := range sl.Lane(w) {
			if v != uint32(w+1) {
				t.Fatalf("lane %d index %d = %d, overwritten by a neighbour", w, i, v)
			}
		}
	}
	// Padding: consecutive lanes at least a cache line apart.
	a, b := sl.Lane(0), sl.Lane(1)
	gap := uintptr(unsafe.Pointer(&b[0])) - uintptr(unsafe.Pointer(&a[len(a)-1]))
	if gap < 64 {
		t.Fatalf("lanes only %d bytes apart, want >= 64", gap)
	}
	// Appending to a lane must not be possible into the next lane's space.
	if cap(a) != len(a) {
		t.Fatalf("lane capacity %d exceeds length %d (three-index slice expected)", cap(a), len(a))
	}
}

func TestSlottedReuse(t *testing.T) {
	// Get/Release must recycle through the arena: steady-state round-trips
	// allocate (close to) nothing. sync.Pool may drop an occasional buffer
	// under GC pressure, so assert a small average, not strict zero.
	var sc Scratch
	sl := GetSlotted[byte](&sc, 2, 100)
	sl.Release()
	allocs := testing.AllocsPerRun(50, func() {
		s := GetSlotted[byte](&sc, 2, 100)
		s.Lane(1)[0] = 1
		s.Release()
	})
	if allocs > 1 {
		t.Fatalf("steady-state GetSlotted/Release allocates %.1f objects/op, want ~0", allocs)
	}
}
