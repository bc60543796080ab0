package rel

import "repro/internal/parallel"

// Slot indices for every table in this package fed by cached hashes come
// from hashutil.Slot/SlotShift: the recursion consumes hash windows from
// the LOW end as bucket ids (every record reaching one leaf shares them,
// so h & (m-1) would collapse a leaf's keys onto a handful of linear
// clusters), and identity-hashed integer keys carry no entropy in the raw
// top bits — Fibonacci hashing diffuses whatever bits differ into the
// slot window.

// node is one recursion node's output, shared by the record-emitting ops
// (dedup's kept records, a join's result rows): the node's own chunk (an
// internal node's heavy-key output; a leaf's emitted rows) followed by its
// light-bucket children in bucket-id order. Nodes and chunks are
// arena-pooled; pack walks the tree once to assign offsets and copies every
// chunk into the result slice in parallel — the same deterministic assembly
// internal/collect uses for its KV tree.
type node[T any] struct {
	own  *parallel.Buf[T]        // nil when the node emitted nothing itself
	hown *parallel.Buf[uint64]   // own records' user hashes (plane-emitting ops only)
	kids *parallel.Buf[*node[T]] // nil for leaves; nil entries for empty buckets
}

// packItem is one chunk placement of the final parallel pack.
type packItem[T any] struct {
	src  []T
	hsrc []uint64 // aligned hashes (plane-emitting packs only)
	off  int
}

// newNode takes a clean pooled node from the arena.
func newNode[T any](sc *parallel.Scratch) *node[T] {
	nd := parallel.GetObj[node[T]](sc)
	nd.own, nd.hown, nd.kids = nil, nil, nil // pooled nodes come back dirty
	return nd
}

// pack flattens the tree into the result slice: one deterministic pre-order
// walk (a node's own chunk, then its buckets in bucket-id order) assigns
// offsets, one parallel pass copies the chunks, and the tree goes back to
// the arena. Plane-emitting ops set hashes: every chunk then travels with
// its aligned hash chunk (node.hown), and the pass fills an arena-leased
// hash plane alongside the result — hout.S[i] is out[i]'s user hash. The
// caller owns hout (typically handing it to the next pipeline stage inside
// a core.Plane) and releases it when the pipeline is done.
func pack[T any](rt *parallel.Runtime, sc *parallel.Scratch, root *node[T], hashes bool) ([]T, *parallel.Buf[uint64]) {
	if root == nil {
		return nil, nil
	}
	itemsBuf := parallel.GetBuf[packItem[T]](sc, 0)
	items := itemsBuf.S[:0]
	total := 0
	var walk func(nd *node[T])
	walk = func(nd *node[T]) {
		if nd == nil {
			return
		}
		if nd.own != nil && len(nd.own.S) > 0 {
			it := packItem[T]{src: nd.own.S, off: total}
			if hashes {
				it.hsrc = nd.hown.S
			}
			items = append(items, it)
			total += len(nd.own.S)
		}
		if nd.kids != nil {
			for _, kid := range nd.kids.S {
				walk(kid)
			}
		}
	}
	walk(root)
	out := make([]T, total)
	var hout *parallel.Buf[uint64]
	var hs []uint64
	if hashes {
		hout = parallel.GetBuf[uint64](sc, total)
		hs = hout.S
	}
	rt.For(len(items), 1, func(i int) {
		copy(out[items[i].off:], items[i].src)
		if hashes {
			copy(hs[items[i].off:], items[i].hsrc)
		}
	})
	freeTree(sc, root)
	itemsBuf.S = items[:0]
	itemsBuf.Release()
	return out, hout
}

// freeTree returns a packed subtree to the arena, clearing chunk contents so
// pooled buffers do not pin caller records between calls.
func freeTree[T any](sc *parallel.Scratch, nd *node[T]) {
	if nd == nil {
		return
	}
	if nd.own != nil {
		clear(nd.own.S)
		nd.own.Release()
		nd.own = nil
	}
	if nd.hown != nil {
		nd.hown.Release()
		nd.hown = nil
	}
	if nd.kids != nil {
		for _, kid := range nd.kids.S {
			freeTree(sc, kid)
		}
		nd.kids.Zero()
		nd.kids.Release()
		nd.kids = nil
	}
	parallel.PutObj(sc, nd)
}
