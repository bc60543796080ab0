package parallel

import (
	"math/bits"
	"reflect"
	"sync"
	"unsafe"
)

// Scratch is a buffer arena: a set of per-type free lists for the temporary
// slices and scratch objects the semisort kernels need on every call (record
// temporaries, counting matrices, cached bucket ids, prefix arrays, sample
// tables, base-case hash tables). One Scratch lives inside each Runtime, so
// every kernel sharing a runtime also shares its buffers and repeated calls
// allocate (close to) nothing in steady state.
//
// Buffer-reuse contract (see DESIGN.md): buffers come back with arbitrary
// contents — callers must not assume zeroed memory (use Buf.Zero when the
// kernel needs zeros). Release must not be called twice, and a released
// buffer must not be used again. Free lists are built on sync.Pool, so
// concurrent Get/Release from any goroutine is safe, idle buffers are
// reclaimed by the GC under memory pressure, and pooled record buffers may
// keep their referenced objects alive until then.
type Scratch struct {
	pools sync.Map // reflect.Type of []T or T -> *sync.Pool
}

// Buf is a pooled slice handle. Use the S field; call Release when done.
type Buf[T any] struct {
	S    []T
	pool *sync.Pool
	// ledger/token route Release through a call-scoped lease ledger (see
	// LeaseBuf): after the call aborts, the release is suppressed and the
	// buffer is discarded instead of re-pooled. Both are zero for plain
	// GetBuf leases.
	ledger *Ledger
	token  uint64
}

// detach forgets the buffer's ledger (Ledger.Settle's straggler path).
func (b *Buf[T]) detach() { b.ledger = nil }

// poolFor returns the free list keyed by the given type, creating it once.
func (s *Scratch) poolFor(key reflect.Type) *sync.Pool {
	if p, ok := s.pools.Load(key); ok {
		return p.(*sync.Pool)
	}
	p, _ := s.pools.LoadOrStore(key, &sync.Pool{})
	return p.(*sync.Pool)
}

// GetBuf takes an n-element slice of T from the arena, growing a recycled
// buffer if needed. Contents are unspecified.
func GetBuf[T any](s *Scratch, n int) *Buf[T] {
	p := s.poolFor(reflect.TypeFor[[]T]())
	b, _ := p.Get().(*Buf[T])
	if b == nil {
		b = &Buf[T]{pool: p}
	}
	b.ledger = nil // pooled handles may carry a previous call's ledger
	if cap(b.S) < n {
		b.S = make([]T, ceilCap(n))
	}
	b.S = b.S[:n]
	return b
}

// Release returns the buffer to its arena. A ledger-tracked buffer (see
// LeaseBuf) settles its lease first; once the call has aborted the release
// is suppressed and the buffer is discarded — never re-pooled — so a
// release running during a panic unwind cannot poison the pool.
func (b *Buf[T]) Release() {
	if lg := b.ledger; lg != nil {
		tok := b.token
		b.ledger = nil
		if !lg.settle(tok) {
			return
		}
	}
	if b.pool != nil {
		b.pool.Put(b)
	}
}

// Zero clears the buffer contents.
func (b *Buf[T]) Zero() { clear(b.S) }

// Slotted is a pooled per-participant scratch block: one fixed-size lane of
// T per participant slot, indexed by the dense slot ids ForRangeW hands out.
// Lanes are padded apart by at least a cache line so participants writing
// their own lanes never false-share, which is what the in-place sorter's
// per-participant bucket counters (internal/core/inplace.go) need. Like
// every arena buffer, lanes come back dirty.
type Slotted[T any] struct {
	buf    *Buf[T]
	lane   int
	stride int
}

// GetSlotted takes a Slotted block with `slots` lanes of `lane` elements
// each from the arena. It is returned by value so hot callers (one scatter
// per recursion level) do not allocate a handle.
func GetSlotted[T any](s *Scratch, slots, lane int) Slotted[T] {
	var zero T
	size := int(unsafe.Sizeof(zero))
	pad := 0
	if size > 0 {
		// At least one full cache line between consecutive lanes (one
		// element already spans a line when size >= 64).
		pad = max(1, (64+size-1)/size)
	}
	stride := lane + pad
	return Slotted[T]{buf: GetBuf[T](s, slots*stride), lane: lane, stride: stride}
}

// Lane returns participant slot w's lane. The caller owns it exclusively for
// the duration of the parallel call that produced w.
func (sl Slotted[T]) Lane(w int) []T {
	lo := w * sl.stride
	return sl.buf.S[lo : lo+sl.lane : lo+sl.lane]
}

// Zero clears every lane (padding included).
func (sl Slotted[T]) Zero() { sl.buf.Zero() }

// Release returns the block to its arena.
func (sl Slotted[T]) Release() { sl.buf.Release() }

// GetObj takes a pooled *T from the arena (zero-valued when fresh; otherwise
// in whatever state PutObj left it). Kernels use this for reusable scratch
// structs whose internal arrays grow monotonically, e.g. base-case hash
// tables.
func GetObj[T any](s *Scratch) *T {
	// Keyed by *T, not T: reflect.TypeFor[T] boxes a zero T into an
	// interface, which heap-allocates a copy of the whole struct on every
	// call (32 KiB for a page-sized T). The pointer type is free to name and
	// cannot collide with GetBuf's []T keys.
	p := s.poolFor(reflect.TypeFor[*T]())
	if v, _ := p.Get().(*T); v != nil {
		return v
	}
	return new(T)
}

// PutObj returns an object taken with GetObj to the arena.
func PutObj[T any](s *Scratch, v *T) {
	s.poolFor(reflect.TypeFor[*T]()).Put(v)
}

// ceilCap rounds allocation capacities up to a power of two so recycled
// buffers converge onto a few size classes instead of growing by dribs.
func ceilCap(n int) int {
	if n <= 8 {
		return 8
	}
	return 1 << bits.Len(uint(n-1))
}
