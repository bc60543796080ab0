package core

import (
	"time"

	"repro/internal/hashutil"
	"repro/internal/parallel"
)

// This file is the absorbing recursion: the one level loop of every op that
// consumes heavy records where they stand instead of scattering them —
// collect-reduce and histogram (internal/collect), dedup and distinct
// counting (internal/rel). An op answers two questions only: what a level
// does with its heavy records (AbsorbOp.Heavy, then AbsorbOp.Emit) and what a
// leaf does with its bucket (AbsorbOp.Leaf). Everything else lives here once:
// the input plane, the leaf cutoff and timing, PlanLevel, the survivor-sized
// scatter buffers, AbsorbLevel, the release order, the recursion over light
// buckets and the output tree. The sorter and the join keep their own
// recursions: the sorter scatters heavy keys and swaps the A/T roles, and the
// join has two sides.

// AbsorbOp is what an absorbing op supplies to Absorb. T is the element type
// of its output chunks, L the state of one level's heavy step: sibling
// buckets recurse in parallel, so that state travels with the level and never
// lives on the shared op.
type AbsorbOp[R, K, T, L any] interface {
	// Heavy opens a level whose sample promoted lv.NH > 0 heavy keys, before
	// its classify sweep. It returns the level's heavy state and the absorb
	// sink the sweep hands every heavy record: subarray, heavy id in
	// [0, NH) and index into cur, in input order within each subarray.
	Heavy(lv *Level[K], cur []R) (L, func(sub, hid, j int))
	// Emit closes the heavy step after the sweep, while lv's heavy table is
	// alive: it releases st and returns the level's own output chunk and,
	// on plane-emitting calls, its aligned hashes. Either may be nil.
	Emit(lv *Level[K], cur []R, st L) (*parallel.Buf[T], *parallel.Buf[uint64])
	// Leaf solves one bucket sequentially from its cached hashes hcur and
	// returns the bucket's output chunk and aligned hashes, as Emit does.
	Leaf(cur []R, hcur []uint64) (*parallel.Buf[T], *parallel.Buf[uint64])
}

// Absorb runs op over a and returns its output tree: each level's heavy
// chunk, then its light buckets in bucket-id order. The caller flattens it
// with Pack, or PackAs when the result has its own element type. A non-nil
// input plane supplies cached hashes, so the top level starts hashed and the
// user hash never runs, and carried heavy keys, which the driver adopts as
// the level-0 heavy table in place of a sampling round. a is not modified;
// d stays the caller's to release.
func Absorb[R, K, T, L any](d *Driver[R, K], a []R, in *Plane[K], op AbsorbOp[R, K, T, L]) *Node[T] {
	if in != nil && in.HeavyKeys != nil {
		d.adopt(in.HeavyKeys, in.HeavyHashes)
	}
	hs, hb, hashed := d.HashPlane(in, len(a))
	root := absorbRec(d, op, a, hs, hashed, 0, 0, hashutil.NewRNG(d.seed))
	if hb != nil {
		hb.Release()
	}
	return root
}

// HashPlane resolves an n-record input's top-level hash plane: an input
// plane's cached hashes are borrowed (hashed is true and nothing is leased);
// otherwise a fresh plane is leased for the fused top level to fill, and the
// caller releases hb. The lease is ledger-tracked: the O(n) mirror is the
// call's biggest, and on a fault it is discarded, not re-pooled.
func (d *Driver[R, K]) HashPlane(in *Plane[K], n int) (hs []uint64, hb *parallel.Buf[uint64], hashed bool) {
	if in != nil && in.Hashes != nil {
		return in.Hashes, nil, true
	}
	hb = parallel.LeaseBuf[uint64](d.sc, d.ledger, n)
	return hb.S, hb, false
}

// absorbRec is one node of the absorbing recursion: plan, sweep with the
// op's sink, emit the heavy keys, recurse on the surviving light buckets.
// cur and hcur are read, never written beyond the top level's lazy hash
// fill, so the top level reads the caller's input directly. hashed reports
// whether hcur already holds every record's user hash (false only at the
// top level).
func absorbRec[R, K, T, L any](d *Driver[R, K], op AbsorbOp[R, K, T, L], cur []R, hcur []uint64, hashed bool, depth, bitDepth int, rng hashutil.RNG) *Node[T] {
	n := len(cur)
	if n == 0 {
		return nil
	}
	sc := d.sc
	if n <= d.alpha || depth >= d.maxDepth {
		if !hashed {
			d.HashAll(cur, hcur) // the leaf table consumes the plane
		}
		return absorbLeaf(d, op, cur, hcur)
	}

	lv := d.PlanLevel(cur, hcur, hashed, true, bitDepth, &rng)
	// Copy for the per-bucket forks: an addressed rng captured by the
	// refining closure would be heap-boxed at every node.
	frng := rng
	var st L
	var sink func(sub, hid, j int)
	if lv.NH > 0 {
		st, sink = op.Heavy(&lv, cur)
	}

	// One fused classify sweep: heavy records go to the sink and are never
	// counted or moved; survivors land in light[0:starts[NLight]] with their
	// hashes carried, in buffers taken at the exact survivor count.
	var lightBuf *parallel.Buf[R]
	var hlightBuf *parallel.Buf[uint64]
	dest := func(kept int) ([]R, []uint64) {
		lightBuf = parallel.GetBuf[R](sc, kept)
		hlightBuf = parallel.GetBuf[uint64](sc, kept)
		return lightBuf.S, hlightBuf.S
	}
	startsBuf := parallel.GetBuf[int](sc, lv.NLight+1)
	starts := d.AbsorbLevel(&lv, cur, hcur, hashed, bitDepth, startsBuf.S, sink, dest)
	lv.ReleaseSample()

	nd := NewNode[T](sc)
	if lv.NH > 0 {
		nd.Own, nd.HOwn = op.Emit(&lv, cur, st)
	}
	lv.ReleaseTable(sc)

	// Recurse on the light buckets. The survivor buffers stay alive until
	// the whole subtree is done (children read them as their cur).
	nd.Kids = parallel.GetBuf[*Node[T]](sc, lv.NLight)
	nd.Kids.Zero()
	kids := nd.Kids.S
	light, hlight := lightBuf.S, hlightBuf.S
	d.ForBuckets(lv.Serial, lv.NLight, func(j int) {
		lo, hi := starts[j], starts[j+1]
		if lo < hi {
			kids[j] = absorbRec(d, op, light[lo:hi], hlight[lo:hi], true, depth+1, lv.NextBit, frng.Fork(uint64(j)))
		}
	})
	hlightBuf.Release()
	lightBuf.Release()
	startsBuf.Release()
	return nd
}

// absorbLeaf runs op's leaf under the stats plane's leaf accounting
// (branch-on-nil when stats are disabled). A leaf that emits nothing needs
// no node.
func absorbLeaf[R, K, T, L any](d *Driver[R, K], op AbsorbOp[R, K, T, L], cur []R, hcur []uint64) *Node[T] {
	var t0 time.Time
	if d.sink != nil {
		t0 = time.Now()
	}
	own, hown := op.Leaf(cur, hcur)
	if d.sink != nil {
		d.sink.Leaf(len(cur), time.Since(t0).Nanoseconds())
	}
	if own == nil && hown == nil {
		return nil
	}
	nd := NewNode[T](d.sc)
	nd.Own, nd.HOwn = own, hown
	return nd
}

// Node is one recursion node's output in a pooled output tree, shared by
// the absorbing ops and the join: the node's own chunk (a level's heavy-key
// output, a leaf's emitted rows) followed by its light-bucket children in
// bucket-id order. Nodes and chunks are arena-pooled; Pack flattens the tree.
type Node[T any] struct {
	Own  *parallel.Buf[T]        // nil when the node emitted nothing itself
	HOwn *parallel.Buf[uint64]   // Own's aligned user hashes (plane-emitting calls only)
	Kids *parallel.Buf[*Node[T]] // nil for leaves; nil entries for empty buckets
}

// NewNode takes a clean pooled node from the arena.
func NewNode[T any](sc *parallel.Scratch) *Node[T] {
	nd := parallel.GetObj[Node[T]](sc)
	nd.Own, nd.HOwn, nd.Kids = nil, nil, nil // pooled nodes come back dirty
	return nd
}

// packItem is one chunk placement of the final parallel pack.
type packItem[T any] struct {
	src  []T
	hsrc []uint64 // aligned hashes (plane-emitting packs only)
	off  int
}

// Pack flattens the tree into the result slice: one deterministic pre-order
// walk (a node's own chunk, then its children in order) assigns offsets, one
// parallel pass copies the chunks, and the tree goes back to the arena. When
// hashes is set every chunk travels with its aligned hash chunk, and the
// pass fills an arena-leased hash plane alongside: hout.S[i] is out[i]'s
// user hash. The caller owns hout (typically handing it to the next pipeline
// stage inside a Plane) and releases it.
func Pack[T any](rt *parallel.Runtime, sc *parallel.Scratch, root *Node[T], hashes bool) ([]T, *parallel.Buf[uint64]) {
	return pack(rt, sc, root, hashes, func(dst, src []T) { copy(dst, src) })
}

// PackAs is Pack for a result of another element type: conv builds each
// result element from its chunk element inside the parallel pass, so a
// public op writes its result once instead of converting a packed copy.
func PackAs[T, U any](rt *parallel.Runtime, sc *parallel.Scratch, root *Node[T], conv func(T) U) []U {
	out, _ := pack(rt, sc, root, false, func(dst []U, src []T) {
		for i, x := range src {
			dst[i] = conv(x)
		}
	})
	return out
}

// pack is Pack and PackAs: put writes one chunk at its offset.
func pack[T, U any](rt *parallel.Runtime, sc *parallel.Scratch, root *Node[T], hashes bool, put func(dst []U, src []T)) ([]U, *parallel.Buf[uint64]) {
	if root == nil {
		return nil, nil
	}
	itemsBuf := parallel.GetBuf[packItem[T]](sc, 0)
	items, total := appendChunks(itemsBuf.S[:0], 0, root, hashes)
	out := make([]U, total)
	var hout *parallel.Buf[uint64]
	var hs []uint64
	if hashes {
		hout = parallel.GetBuf[uint64](sc, total)
		hs = hout.S
	}
	if len(items) > 0 {
		rt.For(len(items), 1, func(i int) {
			put(out[items[i].off:], items[i].src)
			if hashes {
				copy(hs[items[i].off:], items[i].hsrc)
			}
		})
	}
	freeTree(sc, root)
	itemsBuf.S = items[:0]
	itemsBuf.Release()
	return out, hout
}

// appendChunks is Pack's pre-order walk: it appends nd's non-empty chunks
// to items at offsets from total on and returns both advanced.
func appendChunks[T any](items []packItem[T], total int, nd *Node[T], hashes bool) ([]packItem[T], int) {
	if nd == nil {
		return items, total
	}
	if nd.Own != nil && len(nd.Own.S) > 0 {
		it := packItem[T]{src: nd.Own.S, off: total}
		if hashes {
			it.hsrc = nd.HOwn.S
		}
		items = append(items, it)
		total += len(nd.Own.S)
	}
	if nd.Kids != nil {
		for _, kid := range nd.Kids.S {
			items, total = appendChunks(items, total, kid, hashes)
		}
	}
	return items, total
}

// freeTree returns a packed subtree to the arena, clearing chunk contents so
// pooled buffers do not pin caller records between calls.
func freeTree[T any](sc *parallel.Scratch, nd *Node[T]) {
	if nd == nil {
		return
	}
	if nd.Own != nil {
		clear(nd.Own.S)
		nd.Own.Release()
		nd.Own = nil
	}
	if nd.HOwn != nil {
		nd.HOwn.Release()
		nd.HOwn = nil
	}
	if nd.Kids != nil {
		for _, kid := range nd.Kids.S {
			freeTree(sc, kid)
		}
		nd.Kids.Zero()
		nd.Kids.Release()
		nd.Kids = nil
	}
	parallel.PutObj(sc, nd)
}
