// Package strkey makes variable-length ([]byte / string) keys first-class
// on the semisort distribution stack: a pooled, length-prefixed byte-arena
// key plane in front of the generic id-plane engines.
//
// The problem with running the generic engines at K = string is that every
// level then moves 16-byte string headers alongside the records, every leaf
// equality chases a pointer into scattered heap data, every key extraction
// re-derives (or re-allocates, for composite keys) the key, and hashing
// walks cold heap bytes one byte at a time. The paper's guiding rule — move
// and compare 8-byte digests, touch the full key at most once per record per
// level — suggests the opposite layout:
//
//	arena   ........|key 0 bytes|key 1 bytes|key 2 bytes|........
//	rec_i       {span_i, i}   span = rel<<63 | blk<<53 | off<<24 | len
//	hash_i      digest(key i bytes)        (one uint64 per record)
//
// Build materializes every record's key bytes exactly once per call into
// pooled arena blocks and digests each key immediately — while its bytes are
// still in L1 — so the engines never touch cold key bytes for hashing. The
// ops then run the generic driver over Rec records with K = the record's
// SPAN: key extraction reads a field of the record in hand (no memory
// touched), the span value is what the leaf groupers cache per distinct
// representative — so the digest-gated eq fallthrough receives both spans by
// value and goes straight to a bytes.Equal over two contiguous arena
// segments — and the carried input index makes the final gather one
// sequential sweep. Build's digest array enters the engines through the
// pipeline-fusion plane (core.Plane.Hashes / core.SortEqHashed), so the
// user-hash closure is never called on the hot path: between Build and the
// terminal gather, the only key bytes the engines touch are the eq
// fallthrough's — everything else is span-and-digest arithmetic, no matter
// how long the keys are.
//
// On a serial runtime the one-shot unary ops (SortEq, Dedup, CountDistinct,
// Histogram, TopK) switch to the bucketed plane of bucketed.go — a carved
// digest-bucketed layout solved per bucket while it is cache-resident — once
// the input outgrows cache; see that file for the layout and the measured
// rationale. Joins and the incremental pipeline always run the engines over
// the flat plane built here.
//
// Joins give each relation its own plane slot; span bit 63 carries the
// relation, so cross-relation equality decodes the right arena from the span
// alone. Spans pack a 10-bit block id, a 29-bit block offset and a 24-bit
// length: up to 1024 pooled blocks per relation — the staging buffers ARE
// the arena, there is no copy pass — with single keys up to MaxKeyLen bytes
// (longer keys panic, the same hard-limit style as the engine's record
// ceiling). Results never depend on span values, only on the bytes they
// denote, so the block partition is free to follow the worker count.
package strkey

import (
	"bytes"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/hashutil"
	"repro/internal/parallel"
	"repro/internal/rel"
)

const (
	lenBits  = 24
	offBits  = 29
	blkBits  = 10
	blkShift = lenBits + offBits // span bits 53..62 hold the block id
	relShift = blkShift + blkBits

	// MaxKeyLen is the longest single key the arena plane accepts (the
	// span's 24-bit length field). Longer keys panic.
	MaxKeyLen = 1<<lenBits - 1

	// maxBlkArena is the largest single arena block (29-bit offsets).
	maxBlkArena = 1<<offBits - 1

	// maxBlocks bounds the block partition (10-bit block ids).
	maxBlocks = 1 << blkBits

	// maxRecs matches the generic engines' record ceiling.
	maxRecs = 1<<31 - 1
)

// AppendKey materializes r's key bytes onto dst and returns the extended
// slice (append-style, so composite keys never allocate per record). It is
// called exactly once per record per call.
type AppendKey[R any] func(dst []byte, r R) []byte

// HashBytes is the digest function over materialized key bytes, called by
// Build exactly once per record, on bytes just appended (cache-hot). The
// public API passes Bytes; tests substitute counting or constant hashes.
type HashBytes func(b []byte) uint64

// Rec is the engine-side record: the key's span plus the input index it
// came from. Key extraction (RecKey) reads the span from the record in
// hand, and the index rides the distribution so terminal gathers never
// consult a side table.
type Rec struct {
	Span uint64
	Idx  int32
}

// RecKey is the engine key extractor: the record's span IS its key.
func RecKey(r Rec) uint64 { return r.Span }

// Plane is one call's arena key plane: up to two relation slots, each a set
// of pooled arena blocks plus the Rec and digest arrays the engines run
// over. The zero value is empty; slots are attached by Build.
type Plane struct {
	arenas [2][][]byte // [rel][block] -> key bytes
	recs   [2][]Rec
	hashes [2][]uint64
	rbufs  [2]*parallel.Buf[Rec]
	hbufs  [2]*parallel.Buf[uint64]
	abufs  [2]*parallel.Buf[[]byte]
	bbufs  [2]*parallel.Buf[*parallel.Buf[byte]]
}

// Seg returns the key bytes a span denotes; the span alone locates them
// (relation in bit 63, block, offset, length). The bytes alias a pooled
// arena block: valid until Release, never to be retained.
func (p *Plane) Seg(s uint64) []byte {
	a := p.arenas[s>>relShift][(s>>blkShift)&(maxBlocks-1)]
	off := (s >> lenBits) & maxBlkArena
	return a[off : off+s&MaxKeyLen]
}

// Recs returns one relation slot's engine records, in input order. The
// engines reorder them in place; Idx recovers the original position.
func (p *Plane) Recs(rel int) []Rec { return p.recs[rel] }

// In returns one relation slot's fused input plane: Build's digest array as
// the core.Plane hash plane, which the engines consume in place of calling
// the user hash (core.SortEqHashed, rel.DedupPlane, ...). The plane borrows
// the digests — releasing it never releases Build's buffer, but the engines
// MAY scribble on the array (the recursion's role swap), so a slot feeds at
// most one engine call per Build.
func (p *Plane) In(rel int) core.Plane[uint64] {
	return core.Plane[uint64]{Hashes: p.hashes[rel]}
}

// SegHash returns the engine hash closure over spans: digest the span's
// arena segment. With Build's digests riding the fused plane this is a cold
// fallback — the engines never call it on the hot path.
func (p *Plane) SegHash(hash HashBytes) func(uint64) uint64 {
	return func(s uint64) uint64 { return hash(p.Seg(s)) }
}

// Eq returns the engine equality closure: compare two spans' contiguous
// arena segments. Every call site upstream is digest-gated, so this runs at
// most once per record per level on collision-free inputs (the eq-count
// contract); equal spans denote the same segment, and the length check
// inside bytes.Equal rejects unequal-length keys without touching memory.
// Spans arrive by value — the leaf groupers cache each representative's
// span — so the only memory touched is the key bytes themselves.
func (p *Plane) Eq() func(uint64, uint64) bool {
	return func(x, y uint64) bool {
		if x == y {
			return true
		}
		return bytes.Equal(p.Seg(x), p.Seg(y))
	}
}

// Release returns the plane's pooled state. Every buffer holds only
// pointer-free payloads or is zeroed first, and ledger-aborted leases
// suppress their own release, so releasing after a faulted call is safe.
func (p *Plane) Release() {
	for rel := range p.bbufs {
		if bb := p.bbufs[rel]; bb != nil {
			for _, blk := range bb.S {
				if blk != nil {
					blk.Release()
				}
			}
			bb.Zero() // drop block-buffer pointers before pooling
			bb.Release()
			p.bbufs[rel] = nil
		}
		if ab := p.abufs[rel]; ab != nil {
			ab.Zero() // drop arena byte-slice headers before pooling
			ab.Release()
			p.abufs[rel] = nil
			p.arenas[rel] = nil
		}
		if hb := p.hbufs[rel]; hb != nil {
			hb.Release()
			p.hbufs[rel] = nil
			p.hashes[rel] = nil
		}
		if rb := p.rbufs[rel]; rb != nil {
			rb.Release()
			p.rbufs[rel] = nil
			p.recs[rel] = nil
		}
	}
}

// Build materializes a's keys into the plane's relation slot and digests
// each one in the same pass, while its bytes are cache-hot. appendKey and
// hash are each called exactly once per record. Each block's pooled buffer
// IS that arena block — no staging, no copy — and blocks are small enough
// (~8K records) to settle into stable pool size classes, so steady-state
// builds append within capacity and never regrow. The Rec and digest arrays
// are filled in input order; results depend only on key bytes, never on
// span values, so the block partition may follow the worker count.
func Build[R any](p *Plane, rel int, a []R, appendKey AppendKey[R], hash HashBytes, cfg core.Config) {
	n := len(a)
	if n > maxRecs {
		panic("semisort: string-keyed calls support at most 2^31-1 records")
	}
	rt := parallel.Or(cfg.Runtime)
	sc := rt.Scratch()
	rbuf := parallel.LeaseBuf[Rec](sc, cfg.Ledger, n)
	hbuf := parallel.LeaseBuf[uint64](sc, cfg.Ledger, n)
	recs, hashes := rbuf.S, hbuf.S

	nBlocks := max(1, min(maxBlocks, (n+(1<<13)-1)>>13))
	abuf := parallel.GetBuf[[]byte](sc, nBlocks)
	bbuf := parallel.GetBuf[*parallel.Buf[byte]](sc, nBlocks)
	abuf.Zero()
	bbuf.Zero() // a mid-build fault must not re-release stale pooled handles
	arenas, handles := abuf.S, bbuf.S

	ctx, lg := cfg.Ctx, cfg.Ledger
	rt.Blocks(n, nBlocks, func(b, lo, hi int) {
		core.CheckCancel(ctx, lg)
		bb := parallel.GetBuf[byte](sc, 0)
		s := bb.S[:0]
		blk := uint64(rel)<<relShift | uint64(b)<<blkShift
		for i := lo; i < hi; i++ {
			off := len(s)
			s = appendKey(s, a[i])
			l := len(s) - off
			if l > MaxKeyLen {
				panic("semisort: variable-length key longer than 2^24-1 bytes")
			}
			if len(s) > maxBlkArena {
				panic("semisort: arena key plane larger than 2^29-1 bytes per block")
			}
			recs[i] = Rec{Span: blk | uint64(off)<<lenBits | uint64(l), Idx: int32(i)}
			hashes[i] = hash(s[off:])
		}
		bb.S = s
		handles[b] = bb
		arenas[b] = s
	})

	p.recs[rel], p.rbufs[rel] = recs, rbuf
	p.hashes[rel], p.hbufs[rel] = hashes, hbuf
	p.arenas[rel], p.abufs[rel] = arenas, abuf
	p.bbufs[rel] = bbuf
}

// SortEq is semisort= for variable-length keys: reorders a in place so
// records with bytes-equal keys are contiguous (first-appearance group
// order is not specified; records within a group keep input order). The
// engines sort the Rec plane (16 bytes moved per record per level instead
// of the full record and a string header) seeded with Build's digests, so
// no key bytes are hashed after Build; one gather applies the permutation
// to a at the end. Serial runs over cache-sized inputs take the bucketed
// plane instead (bucketed.go).
func SortEq[R any](a []R, appendKey AppendKey[R], hash HashBytes, cfg core.Config) {
	n := len(a)
	if n == 0 {
		return
	}
	if useBuckets(n) {
		bucketedSortEq(a, appendKey, hash, cfg)
		return
	}
	var p Plane
	Build(&p, 0, a, appendKey, hash, cfg)
	in := p.In(0)
	core.SortEqHashed(p.Recs(0), in.Hashes, RecKey, p.SegHash(hash), p.Eq(), cfg)

	rt := parallel.Or(cfg.Runtime)
	tbuf := parallel.LeaseBuf[R](rt.Scratch(), cfg.Ledger, n)
	tmp := tbuf.S
	recs := p.Recs(0)
	rt.For(n, 1<<13, func(i int) { tmp[i] = a[recs[i].Idx] })
	parallel.CopyIn(rt, a, tmp)
	clear(tmp) // pooled record buffers must not pin caller data
	tbuf.Release()
	p.Release()
}

// Dedup keeps each distinct key's first record in input order; see
// rel.Dedup for the output-order contract.
func Dedup[R any](a []R, appendKey AppendKey[R], hash HashBytes, cfg core.Config) []R {
	n := len(a)
	if n == 0 {
		return nil
	}
	if useBuckets(n) {
		return bucketedDedup(a, appendKey, hash, cfg)
	}
	var p Plane
	Build(&p, 0, a, appendKey, hash, cfg)
	in := p.In(0)
	keep, hout := rel.DedupPlane(p.Recs(0), &in, false, RecKey, p.SegHash(hash), p.Eq(), cfg)
	if hout != nil {
		hout.Release()
	}
	out := make([]R, len(keep))
	rt := parallel.Or(cfg.Runtime)
	rt.For(len(keep), 1<<13, func(i int) { out[i] = a[keep[i].Idx] })
	p.Release()
	return out
}

// CountDistinct counts distinct keys without materializing them.
func CountDistinct[R any](a []R, appendKey AppendKey[R], hash HashBytes, cfg core.Config) int64 {
	if len(a) == 0 {
		return 0
	}
	if useBuckets(len(a)) {
		return bucketedCountDistinct(a, appendKey, hash, cfg)
	}
	var p Plane
	Build(&p, 0, a, appendKey, hash, cfg)
	in := p.In(0)
	total := rel.CountDistinctPlane(p.Recs(0), &in, RecKey, p.SegHash(hash), p.Eq(), cfg)
	p.Release()
	return total
}

// Histogram counts each distinct key's records, emitting out[i] =
// mk(key, count); Emit materializes the output keys.
func Histogram[R, T any](a []R, appendKey AppendKey[R], hash HashBytes, mk func(string, int64) T, cfg core.Config) []T {
	if len(a) == 0 {
		return []T{}
	}
	if useBuckets(len(a)) {
		return bucketedHistogram(a, appendKey, hash, mk, cfg)
	}
	var p Plane
	Build(&p, 0, a, appendKey, hash, cfg)
	in := p.In(0)
	kv := collect.HistogramPlane(p.Recs(0), &in, RecKey, p.SegHash(hash), p.Eq(), cfg)
	out := Emit(p.Seg, kv, kvAt, mk, cfg)
	p.Release()
	return out
}

// TopK returns the k most frequent keys with counts; only the k winners'
// key bytes are ever materialized.
func TopK[R, T any](a []R, k int, appendKey AppendKey[R], hash HashBytes, mk func(string, int64) T, cfg core.Config) []T {
	if len(a) == 0 || k <= 0 {
		return []T{}
	}
	if useBuckets(len(a)) {
		return bucketedTopK(a, k, appendKey, hash, mk, cfg)
	}
	var p Plane
	Build(&p, 0, a, appendKey, hash, cfg)
	in := p.In(0)
	kv := rel.SelectTopK(collect.HistogramPlane(p.Recs(0), &in, RecKey, p.SegHash(hash), p.Eq(), cfg), k, cfg)
	out := Emit(p.Seg, kv, kvAt, mk, cfg)
	p.Release()
	return out
}

// Join computes the inner equi-join of a and b on bytes-equal keys. Each
// relation's keys build into their own slot of one shared plane and the
// engine-level eq compares across both; join rows are emitted directly from
// the caller's records via joinF.
func Join[R, S, T any](a []R, b []S, appendKeyA AppendKey[R], appendKeyB AppendKey[S],
	hash HashBytes, joinF func(R, S) T, cfg core.Config) []T {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	var p Plane
	Build(&p, 0, a, appendKeyA, hash, cfg)
	Build(&p, 1, b, appendKeyB, hash, cfg)
	jf := func(x, y Rec) T { return joinF(a[x.Idx], b[y.Idx]) }
	inA, inB := p.In(0), p.In(1)
	out := rel.JoinPlane(p.Recs(0), &inA, p.Recs(1), &inB, RecKey, RecKey,
		p.SegHash(hash), p.Eq(), jf, nil, cfg)
	p.Release()
	return out
}

// SemiJoin returns the a-records whose key appears in b, each at most once.
func SemiJoin[R, S any](a []R, b []S, appendKeyA AppendKey[R], appendKeyB AppendKey[S],
	hash HashBytes, cfg core.Config) []R {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	var p Plane
	Build(&p, 0, a, appendKeyA, hash, cfg)
	Build(&p, 1, b, appendKeyB, hash, cfg)
	inA, inB := p.In(0), p.In(1)
	keep := rel.SemiJoinPlane(p.Recs(0), &inA, p.Recs(1), &inB, RecKey, RecKey,
		p.SegHash(hash), p.Eq(), cfg)
	out := make([]R, len(keep))
	rt := parallel.Or(cfg.Runtime)
	rt.For(len(keep), 1<<13, func(i int) { out[i] = a[keep[i].Idx] })
	p.Release()
	return out
}

// Bytes is the canonical digest for arena key bytes: hashutil.WideBytes,
// word-at-a-time over the contiguous segment.
func Bytes(b []byte) uint64 { return hashutil.WideBytes(b) }
