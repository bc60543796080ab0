package parallel

import (
	"math/bits"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
	"weak"
)

// Scratch is a buffer arena: free lists for the temporary slices and
// scratch objects the semisort kernels need on every call (record
// temporaries, counting matrices, cached bucket ids, prefix arrays, sample
// tables, base-case hash tables). One Scratch lives inside each Runtime, so
// every kernel sharing a runtime also shares its buffers and repeated calls
// allocate (close to) nothing in steady state.
//
// Buffer-reuse contract (see DESIGN.md): buffers come back with arbitrary
// contents and capacity — callers must not assume zeroed memory (use
// Buf.Zero when the kernel needs zeros). Release must not be called twice,
// and a released buffer must not be used again. Concurrent Get/Release from
// any goroutine is safe.
//
// Two kinds of free list back the arena:
//
//   - Byte classes. A GetBuf lease of at least rawMin bytes whose element
//     type holds no pointers is carved from a []uint64 block of the
//     power-of-two byte class that fits it. The classes are shared by every
//     such element type (one 16 MiB block serves a record temporary, a
//     survivor buffer and a hash plane alike) and held strongly, so they
//     survive garbage collection. A released block is dropped once it has
//     sat unused for idleWindow; idle blocks are swept on release, after
//     every GC cycle, and all at once by Runtime.Close.
//   - sync.Pool, per type: smaller leases, leases of pointerful element
//     types and GetObj objects. The GC trims these, and pooled record
//     buffers may keep their referenced objects alive until it does.
type Scratch struct {
	pools   sync.Map // reflect.Type of []T -> *bufLists; of *T -> *sync.Pool
	classes [64]byteClass
	armed   atomic.Bool  // a GC sweep is pending for this arena
	now     func() int64 // test clock in ns; nil reads the monotonic clock
}

const (
	// rawMin is the smallest lease, in bytes, served from the byte classes.
	// It is low enough to take the absorbing ops' leaf chunks (about 2 KiB
	// at 2^17 uniform records), which a GC would otherwise drop by the
	// thousand.
	rawMin = 1 << 10
	// idleWindow is how long a released block may sit unused in its byte
	// class before a sweep drops it.
	idleWindow = int64(time.Second)
)

// byteClass is the free list of one power-of-two block size, oldest
// release first: leases pop the newest block and sweeps drop from the front.
type byteClass struct {
	mu   sync.Mutex
	free []idleBlock
}

type idleBlock struct {
	mem      []uint64
	released int64 // clock reading at release
}

// bufLists are the per-type lists of GetBuf. typed and raw pool the handles
// of sync.Pool-backed and byte-class-backed leases apart: a typed handle
// keeps whatever capacity appends grew it to, and a leased block must
// never replace it.
type bufLists struct {
	typed, raw sync.Pool
	size       int  // unsafe.Sizeof(T)
	rawOK      bool // T is pointer-free, non-empty and at most 8-aligned
}

var epoch = time.Now()

func (s *Scratch) clock() int64 {
	if s.now != nil {
		return s.now()
	}
	return int64(time.Since(epoch))
}

// Buf is a pooled slice handle. Use the S field; call Release when done.
type Buf[T any] struct {
	S    []T
	pool *sync.Pool
	// raw is the byte-class block S views, nil for sync.Pool-backed leases.
	raw []uint64
	sc  *Scratch
	// ledger/token route Release through a call-scoped lease ledger (see
	// LeaseBuf): after the call aborts, the release is suppressed and the
	// buffer is discarded instead of re-pooled. Both are zero for plain
	// GetBuf leases.
	ledger *Ledger
	token  uint64
}

// detach forgets the buffer's ledger (Ledger.Settle's straggler path).
func (b *Buf[T]) detach() { b.ledger = nil }

// poolFor returns the object free list keyed by the given type, creating it
// once.
func (s *Scratch) poolFor(key reflect.Type) *sync.Pool {
	if p, ok := s.pools.Load(key); ok {
		return p.(*sync.Pool)
	}
	p, _ := s.pools.LoadOrStore(key, &sync.Pool{})
	return p.(*sync.Pool)
}

// listsFor returns the buffer lists of slice type key, classifying its
// element type once.
func (s *Scratch) listsFor(key reflect.Type) *bufLists {
	if l, ok := s.pools.Load(key); ok {
		return l.(*bufLists)
	}
	el := key.Elem()
	l, _ := s.pools.LoadOrStore(key, &bufLists{
		size:  int(el.Size()),
		rawOK: el.Size() > 0 && el.Align() <= 8 && pointerFree(el),
	})
	return l.(*bufLists)
}

// pointerFree reports whether values of t hold no pointers the GC must
// trace, so t may be stored in a []uint64 block.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return t.Len() == 0 || pointerFree(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}

// GetBuf takes an n-element slice of T from the arena. Contents and
// capacity beyond n are unspecified.
func GetBuf[T any](s *Scratch, n int) *Buf[T] {
	l := s.listsFor(reflect.TypeFor[[]T]())
	if l.rawOK && n*l.size >= rawMin {
		b, _ := l.raw.Get().(*Buf[T])
		if b == nil {
			b = &Buf[T]{pool: &l.raw, sc: s}
		}
		b.ledger = nil // pooled handles may carry a previous call's ledger
		b.raw = s.take(bits.Len(uint(n*l.size - 1)))
		b.S = unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b.raw))), len(b.raw)*8/l.size)[:n]
		return b
	}
	b, _ := l.typed.Get().(*Buf[T])
	if b == nil {
		b = &Buf[T]{pool: &l.typed}
	}
	b.ledger = nil
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
	if b.raw != nil {
		b.sc.put(b.raw)
		b.raw, b.S = nil, nil
	}
	if b.pool != nil {
		b.pool.Put(b)
	}
}

// GrowBuf makes room for need elements in an append-filled lease: it
// returns b when cap(b.S) holds need, otherwise a fresh lease from s with
// b.S copied in and b released. The fresh lease is at least twice b's
// capacity and at least rawMin bytes, so a pointer-free fill lives in the
// byte classes from its first element on, where append's reallocation
// would move it onto the heap for a GC to drop. b may be nil (nothing
// filled yet).
func GrowBuf[T any](s *Scratch, b *Buf[T], need int) *Buf[T] {
	var old []T
	if b != nil {
		if need <= cap(b.S) {
			return b
		}
		old = b.S
	}
	var zero T
	nb := GetBuf[T](s, max(need, 2*cap(old), rawMin/max(1, int(unsafe.Sizeof(zero)))))
	nb.S = nb.S[:copy(nb.S, old)]
	if b != nil {
		b.Release()
	}
	return nb
}

// take pops the newest idle block of byte class c (1<<c bytes), or
// allocates one.
func (s *Scratch) take(c int) []uint64 {
	cl := &s.classes[c]
	cl.mu.Lock()
	if k := len(cl.free) - 1; k >= 0 {
		mem := cl.free[k].mem
		cl.free[k] = idleBlock{}
		cl.free = cl.free[:k]
		cl.mu.Unlock()
		return mem
	}
	cl.mu.Unlock()
	return make([]uint64, 1<<c/8)
}

// put files a released block under its class, drops the class's blocks
// that have idled past the window, and makes sure a GC sweep is pending
// while the arena holds anything.
func (s *Scratch) put(mem []uint64) {
	cl := &s.classes[bits.TrailingZeros(uint(len(mem)*8))]
	cl.mu.Lock()
	now := s.clock() // read under the lock: each list stays in release order
	cl.free = append(cl.free, idleBlock{mem: mem, released: now})
	cl.dropIdle(now)
	cl.mu.Unlock()
	if !s.armed.Load() && s.armed.CompareAndSwap(false, true) {
		armSweep(s)
	}
}

// dropIdle drops the blocks released more than idleWindow before now and
// reports how many remain. The caller holds cl.mu.
func (cl *byteClass) dropIdle(now int64) int {
	k := 0
	for k < len(cl.free) && now-cl.free[k].released > idleWindow {
		k++
	}
	if k > 0 {
		m := copy(cl.free, cl.free[k:])
		clear(cl.free[m:])
		cl.free = cl.free[:m]
	}
	return len(cl.free)
}

// sweep drops every block idle past the window at time now and reports
// how many stay. Runtime.Close sweeps at math.MaxInt64, dropping them all.
func (s *Scratch) sweep(now int64) int {
	held := 0
	for c := range s.classes {
		cl := &s.classes[c]
		cl.mu.Lock()
		held += cl.dropIdle(now)
		cl.mu.Unlock()
	}
	return held
}

// gcSentinel is the object whose collection marks the end of a GC cycle.
// It is large enough and pointerful, so the allocator never batches it with
// live tiny objects.
type gcSentinel struct {
	_ *byte
	_ [3]uint64
}

// armSweep schedules a sweep of s for the end of the next GC cycle: the
// cleanup of a fresh unreachable sentinel runs once that cycle has
// collected it. The cleanup holds s weakly, so a dropped runtime's arena is
// collected with it instead of being kept alive by its own sweeps; while
// the arena still holds blocks, the cleanup re-arms itself.
func armSweep(s *Scratch) {
	runtime.AddCleanup(new(gcSentinel), sweepAfterGC, weak.Make(s))
}

func sweepAfterGC(w weak.Pointer[Scratch]) {
	s := w.Value()
	if s == nil {
		return
	}
	s.armed.Store(false)
	if s.sweep(s.clock()) > 0 && s.armed.CompareAndSwap(false, true) {
		armSweep(s)
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
