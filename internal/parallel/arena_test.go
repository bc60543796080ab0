package parallel

import (
	"reflect"
	"sync/atomic"
	"testing"
	"unsafe"
)

// classLen is the number of idle blocks byte class c holds.
func classLen(sc *Scratch, c int) int {
	cl := &sc.classes[c]
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return len(cl.free)
}

func heldBlocks(sc *Scratch) int {
	n := 0
	for c := range sc.classes {
		n += classLen(sc, c)
	}
	return n
}

// TestByteClassIdleWindow drives the idle window with an injected clock: a
// block left unused past the window is dropped by a sweep, one reused
// inside the window stays, and a release sweeps its own class lazily.
func TestByteClassIdleWindow(t *testing.T) {
	// The clock is atomic: a GC sweep may read it from the cleanup goroutine.
	var clock atomic.Int64
	sc := &Scratch{now: clock.Load}
	const c = 13 // 1024 uint64s = 8 KiB
	a := GetBuf[uint64](sc, 1024)
	b := GetBuf[uint64](sc, 1024)
	pa, pb := &a.S[0], &b.S[0]
	a.Release() // idle from 0
	clock.Store(idleWindow / 2)
	b.Release() // idle from W/2
	if got := classLen(sc, c); got != 2 {
		t.Fatalf("class holds %d blocks after two releases, want 2", got)
	}

	clock.Store(idleWindow + idleWindow/4) // a idle 1.25W, b 0.75W
	if held := sc.sweep(clock.Load()); held != 1 {
		t.Fatalf("sweep kept %d blocks, want 1 (only the block inside the window)", held)
	}
	// Reuse inside the window renews the block's release time.
	r := GetBuf[uint64](sc, 1000)
	if &r.S[0] != pb {
		t.Fatal("lease did not reuse the block that stayed")
	}
	if &r.S[0] == pa {
		t.Fatal("the idle block came back after its sweep")
	}
	r.Release() // idle from 1.25W
	clock.Store(2 * idleWindow)
	if held := sc.sweep(clock.Load()); held != 1 {
		t.Fatalf("a block reused 0.75W ago was swept (held %d)", held)
	}

	// Lazy sweep: the next release into the class drops the idle block.
	clock.Store(3 * idleWindow)
	x := GetBuf[uint64](sc, 1024) // takes the held block
	y := GetBuf[uint64](sc, 1024) // fresh
	x.Release()
	clock.Store(4*idleWindow + 1)
	y.Release() // x has idled past the window: dropped on this release
	if got := classLen(sc, c); got != 1 {
		t.Fatalf("class holds %d blocks after a lazy sweep, want 1", got)
	}
}

// TestCloseDrainsArena: Runtime.Close hands every idle block back at once.
func TestCloseDrainsArena(t *testing.T) {
	rt := NewRuntime(1)
	sc := rt.Scratch()
	bufs := []*Buf[int64]{GetBuf[int64](sc, 1<<10), GetBuf[int64](sc, 1<<14), GetBuf[int64](sc, 1<<14)}
	for _, b := range bufs {
		b.Release()
	}
	if got := heldBlocks(sc); got != 3 {
		t.Fatalf("arena holds %d blocks, want 3", got)
	}
	rt.Close()
	if got := heldBlocks(sc); got != 0 {
		t.Fatalf("arena holds %d blocks after Close, want 0", got)
	}
}

// TestByteClassesSharedAcrossTypes: one byte class serves every
// pointer-free element type, so a block released as one type is leased
// again as another.
func TestByteClassesSharedAcrossTypes(t *testing.T) {
	var sc Scratch
	type rec struct{ k, v uint64 }
	a := GetBuf[rec](&sc, 4096) // 64 KiB
	p := unsafe.Pointer(&a.S[0])
	a.Release()
	b := GetBuf[uint32](&sc, 16384) // 64 KiB
	if unsafe.Pointer(&b.S[0]) != p {
		t.Fatal("a 64 KiB uint32 lease did not reuse the 64 KiB block released as records")
	}
	if cap(b.S) != 16384 {
		t.Fatalf("view capacity %d, want the block's 16384 elements", cap(b.S))
	}
	b.Release()
}

// TestPointerFreeClassification pins which element types may live in
// []uint64 blocks: only types the GC never has to trace.
func TestPointerFreeClassification(t *testing.T) {
	type padded struct {
		a uint8
		b uint64
		c uint16
	}
	type nested struct {
		p struct{ q [2]int64 }
		r bool
		f float32
	}
	type withString struct {
		a int
		s string
	}
	type deepFunc struct {
		inner struct{ f func() }
	}
	for _, c := range []struct {
		t    reflect.Type
		want bool
	}{
		{reflect.TypeFor[uint64](), true},
		{reflect.TypeFor[complex128](), true},
		{reflect.TypeFor[uintptr](), true},
		{reflect.TypeFor[padded](), true},
		{reflect.TypeFor[[4]uint32](), true},
		{reflect.TypeFor[[3]padded](), true},
		{reflect.TypeFor[nested](), true},
		{reflect.TypeFor[struct{}](), true},
		{reflect.TypeFor[[0]*int](), true},
		{reflect.TypeFor[*int](), false},
		{reflect.TypeFor[unsafe.Pointer](), false},
		{reflect.TypeFor[string](), false},
		{reflect.TypeFor[[]byte](), false},
		{reflect.TypeFor[map[int]int](), false},
		{reflect.TypeFor[chan int](), false},
		{reflect.TypeFor[func()](), false},
		{reflect.TypeFor[any](), false},
		{reflect.TypeFor[withString](), false},
		{reflect.TypeFor[[2]*int](), false},
		{reflect.TypeFor[deepFunc](), false},
	} {
		if got := pointerFree(c.t); got != c.want {
			t.Errorf("pointerFree(%v) = %v, want %v", c.t, got, c.want)
		}
	}

	// Routing: a large lease of a pointer-free type is class-backed; a
	// pointerful or zero-size one stays on the typed pool.
	var sc Scratch
	if b := GetBuf[padded](&sc, 1<<12); b.raw == nil {
		t.Error("pointer-free lease not served from a byte class")
	} else {
		b.Release()
	}
	if b := GetBuf[withString](&sc, 1<<12); b.raw != nil {
		t.Error("pointerful lease served from a byte class")
	} else {
		b.Release()
	}
	if b := GetBuf[struct{}](&sc, 1<<20); b.raw != nil {
		t.Error("zero-size lease served from a byte class")
	} else {
		b.Release()
	}
	if b := GetBuf[uint64](&sc, rawMin/8-1); b.raw != nil {
		t.Error("lease under rawMin served from a byte class")
	} else {
		b.Release()
	}
}

// TestAppendGrownLeaseKeepsCapacity: a lease taken with a 0 hint and grown
// by append keeps its grown capacity across calls, even when a class-backed
// lease of the same element type is taken and released in between.
func TestAppendGrownLeaseKeepsCapacity(t *testing.T) {
	var sc Scratch
	const grown = 64 << 10
	kept := false
	for try := 0; try < 8 && !kept; try++ { // sync.Pool may drop a handle at a GC
		b := GetBuf[byte](&sc, 0)
		s := b.S[:0]
		for len(s) < grown {
			s = append(s, make([]byte, 4096)...)
		}
		b.S = s
		b.Release()
		r := GetBuf[byte](&sc, grown) // class-backed, same element type
		r.Release()
		b2 := GetBuf[byte](&sc, 0)
		kept = cap(b2.S) >= grown
		b2.Release()
	}
	if !kept {
		t.Fatal("0-hint lease lost its appended capacity across calls")
	}
}

// TestAbortedLeaseNotRefiled: the ledger's discard-on-abort rule holds for
// class-backed buffers — an aborted call's release never refiles the block.
func TestAbortedLeaseNotRefiled(t *testing.T) {
	var sc Scratch
	lg := GetLedger(&sc)
	b := LeaseBuf[uint64](&sc, lg, 1<<12)
	lg.Abort()
	b.Release()
	if got := heldBlocks(&sc); got != 0 {
		t.Fatalf("aborted lease refiled %d blocks", got)
	}
}
