package strkey

// The bucketed plane: the serial fast path of the one-shot unary ops.
//
// A flat plane run (strkey.go) leaves the dominant costs scattered across a
// multi-megabyte working set: the engine's leaf groupers chase digests and
// key bytes all over the arena, and every digest-gated comparison is two
// DRAM misses. Measured on the regression gate's string cell (1M keys of
// 16-40 bytes, serial), grouping cost collapses when the plane is first
// partitioned by a digest window so that each partition's records, digests
// AND key bytes are cache-resident while it is solved. This file implements
// that layout.
//
// The build is CHUNKED: a global scatter (hash everything, then route n
// records and their bytes to 2^b carved regions) is wrong on a real memory
// system — it keeps 2 * 2^b write streams live at once, which is the whole
// L1 in active lines plus a TLB entry per region, and it re-reads the n-
// record staging arrays from DRAM. Measured inside the regression gate
// (large heap, warm pools) that scatter pass alone cost 2.5x its standalone
// time. Instead the build sweeps the input once in chunks of bchunk
// records, and per chunk:
//
//  1. append + digest: each key is materialized once (appendKey) into a
//     reused chunk-local staging arena and digested while its bytes are in
//     cache; per-chunk bucket counts accumulate. Buckets are named by the
//     digest's TOP b bits (the engines and the grouper's slot index consume
//     other bits, so the window is free). This mini-pass writes only
//     sequential streams: interleaving hashing with scattered stores
//     measurably stalls the pipeline.
//  2. staged scatter: one input-order sweep routes each 24-byte cell
//     {span, digest, input index} and each key's bytes into CHUNK-LOCAL
//     stages, carved into per-bucket runs by the chunk counts. Both stages
//     fit in cache, so the 2 * 2^b write streams land in resident lines;
//     spans are assigned their (computable) global byte offsets as they
//     pass. Scattering per-key stores directly into the global buffers
//     instead measurably serializes on fresh-DRAM cache-line fills.
//  3. bulk flush: each stage run is copied to its final global region with
//     one memmove per (chunk, bucket) run — large sequential copies that
//     stream at full bandwidth. Bucket b's records and bytes end up in
//     nchunks digest-ordered runs, in input order within each run.
//
// Per-bucket grouping then solves each bucket (~4K records, so cells +
// key bytes together are cache-resident) with an open-addressing table of
// the paper's hash-table base case (Section 3.3), sized per bucket to 2x
// that bucket's record count so a heavy key inflating ONE bucket does not
// tax the other buckets' clears: one probe chain per record, comparisons
// gated by full 64-bit digest equality, and the eq fallthrough compares two
// cache-resident segments. Bucket results concatenate: bytes-equal keys
// share a digest and hence a bucket, so per-bucket first-occurrence IS
// global first-occurrence (runs are visited in chunk = input order), and
// the output-order contracts of the ops leave group order unspecified.
//
// The same table could serve the whole input at once — that is exactly the
// paper's baseline the semisort beats: a global table is one cache miss per
// probe. Bucketing first is what makes the base case legitimate again.
//
// The path is serial by construction (one worker would own every bucket
// anyway); parallel runtimes keep the flat plane, where one engine call
// parallelizes across workers. appendKey and the digest still run exactly
// once per record, and the digest-gated eq fallthrough still honors the
// eq-count contract (Config.WithEqCounter observes it).

import (
	"bytes"
	"math/bits"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/hashutil"
	"repro/internal/parallel"
	"repro/internal/rel"
)

// minBucketed is the smallest input the serial one-shot ops bucket: below
// it the whole flat plane already fits in cache and the bucketed build
// would only add traffic.
const minBucketed = 1 << 15

// bchunk is the build's sweep granularity: big enough that per-chunk run
// bookkeeping vanishes, small enough that a chunk's staging arena, digests
// and cell window stay cache-resident together.
const bchunk = 1 << 13

// useBuckets reports whether a serial one-shot op should take the bucketed
// plane: only at parallelism 1 (a parallel engine run beats serial
// per-bucket solves; pool goroutines may exist but GOMAXPROCS gates how
// many run) and only once the plane outgrows cache.
func useBuckets(n int) bool {
	return parallel.Workers() == 1 && n >= minBucketed
}

// nbktFor sizes the bucket partition so each bucket holds a few thousand
// records (cells + key bytes cache-resident while it is solved), capped at
// 256 so the scatter's active write set stays within one chunk window.
func nbktFor(n int) int {
	lg := bits.Len(uint(n/4096)) - 1
	return 1 << max(1, min(8, lg))
}

// brec is the bucketed record: byte-buffer span, full digest and input
// index in one 24-byte cell, so the scatter writes one stream per bucket
// and the grouper reads one line per record.
type brec struct {
	Span, H uint64
	Idx     int32
}

// bspan packs a byte-buffer offset and length into a brec span. Offsets
// address the single run-structured byte buffer (not a block arena), so
// they get the span's upper 40 bits; lengths keep the usual 24.
func bspan(off int, l int) uint64 { return uint64(off)<<lenBits | uint64(l) }

// stagingArena and planeArena are pooled wrappers giving the build's two
// append-grown byte buffers their own free lists. The scratch arena pools
// by element type, and the shared []byte pool also serves the flat plane's
// block arenas — a 0-hint lease there pops an arbitrary buffer, and
// whichever of the two large buffers drew a small one would regrow from
// scratch every call (measured at ~50ms/call inside the regression gate).
type stagingArena struct{ b []byte }

type planeArena struct{ b []byte }

type scatterArena struct{ b []byte }

type cellStage struct{ r []brec }

// carved is the bucketed plane: n cells and one byte buffer, both laid out
// as nchunks x nbkt runs. Bucket b's records are the runs
// brecs[rs[c*nbkt+b] : +rl[c*nbkt+b]] for each chunk c, in input order.
type carved struct {
	nbkt    int
	nchunks int
	maxCnt  int32   // largest bucket's total record count
	cnt     []int32 // per-bucket totals (table sizing), length nbkt
	rs, rl  []int32 // run starts / lengths, nchunks*nbkt
	brecs   []brec
	bytes   []byte

	bb           *parallel.Buf[planeArena]
	rb           *parallel.Buf[brec]
	cb, rsb, rlb *parallel.Buf[int32]
}

// seg returns the key bytes a bucketed span denotes.
func (c *carved) seg(s uint64) []byte {
	off := s >> lenBits
	return c.bytes[off : off+s&MaxKeyLen]
}

func (c *carved) release() {
	c.rlb.Release()
	c.rsb.Release()
	c.cb.Release()
	c.rb.Release()
	c.bb.Release()
	*c = carved{}
}

// buildCarved runs the chunked build sweep. appendKey and hash run exactly
// once per record; each chunk's keys are staged once and copied out once
// while still cache-hot.
func buildCarved[R any](a []R, appendKey AppendKey[R], hash HashBytes, cfg core.Config) carved {
	n := len(a)
	if n > maxRecs {
		panic("semisort: string-keyed calls support at most 2^31-1 records")
	}
	nbkt := nbktFor(n)
	shift := uint(64 - bits.Len(uint(nbkt-1))) // top bits; nbkt is a power of two
	nchunks := (n + bchunk - 1) / bchunk
	rt := parallel.Or(cfg.Runtime)
	sc := rt.Scratch()
	ctx, lg := cfg.Ctx, cfg.Ledger

	// Chunk-local scratch, reused every chunk so its pages stay hot.
	cfb := parallel.LeaseBuf[stagingArena](sc, lg, 1)
	sgb := parallel.LeaseBuf[scatterArena](sc, lg, 1)
	cgb := parallel.LeaseBuf[cellStage](sc, lg, 1)
	chb := parallel.LeaseBuf[uint64](sc, lg, bchunk)
	csb := parallel.LeaseBuf[uint64](sc, lg, bchunk)
	flat, hs, sp := cfb.S[0].b[:0], chb.S, csb.S

	// Global plane, filled left to right. Both arenas append-grow; pooled
	// growth makes reuse steady.
	rb := parallel.LeaseBuf[brec](sc, lg, n)
	bb := parallel.LeaseBuf[planeArena](sc, lg, 1)
	rsb := parallel.LeaseBuf[int32](sc, lg, nchunks*nbkt)
	rlb := parallel.LeaseBuf[int32](sc, lg, nchunks*nbkt)
	cb := parallel.LeaseBuf[int32](sc, lg, nbkt)
	brecs, bytesAll, rs, rl := rb.S, bb.S[0].b[:0], rsb.S, rlb.S
	cnt := cb.S[:nbkt]
	clear(cnt)

	gbyte := 0 // global byte-buffer fill position
	stage := sgb.S[0].b
	cstage := cgb.S[0].r
	if cap(cstage) < bchunk {
		cstage = make([]brec, bchunk)
	}
	cstage = cstage[:bchunk]
	for c0 := 0; c0 < nchunks; c0++ {
		s := c0 * bchunk
		m := min(bchunk, n-s)

		// Mini-pass 1: append + digest into sequential streams; count
		// records and bytes per bucket.
		flat = flat[:0]
		var ccnt [256]int32
		var cbby [256]int32
		for k := 0; k < m; k++ {
			if k&(1<<13-1) == 0 {
				core.CheckCancel(ctx, lg)
			}
			off := len(flat)
			flat = appendKey(flat, a[s+k])
			l := len(flat) - off
			if l > MaxKeyLen {
				panic("semisort: variable-length key longer than 2^24-1 bytes")
			}
			h := hash(flat[off:])
			hs[k] = h
			sp[k] = uint64(off)<<lenBits | uint64(l)
			b := h >> shift
			ccnt[b]++
			cbby[b] += int32(l)
		}
		totc := len(flat)
		if totc >= 1<<(64-lenBits) || gbyte+totc >= 1<<40 {
			panic("semisort: bucketed arena key plane larger than 2^40 bytes")
		}
		// Carve the chunk's cell runs out of brecs[s:s+m], its byte runs
		// out of the global byte buffer (packed), and its stage runs out of
		// the chunk-local stage.
		base := c0 * nbkt
		var wbpos [256]int   // global byte positions (span assignment only)
		var swpos [256]int32 // byte stage write cursors
		var srun [256]int32  // byte stage run starts
		var cwpos [256]int32 // cell stage write cursors
		var crun [256]int32  // cell stage run starts
		pos := int32(s)
		gb := gbyte
		sb := int32(0)
		cp := int32(0)
		for b := 0; b < nbkt; b++ {
			rs[base+b] = pos
			rl[base+b] = ccnt[b]
			pos += ccnt[b]
			cnt[b] += ccnt[b]
			wbpos[b] = gb
			gb += int(cbby[b])
			srun[b] = sb
			swpos[b] = sb
			sb += cbby[b]
			crun[b] = cp
			cwpos[b] = cp
			cp += ccnt[b]
		}
		if int(sb) > cap(stage) {
			stage = make([]byte, sb)
		}
		stage = stage[:cap(stage)]
		if gb > cap(bytesAll) {
			grown := make([]byte, gb, max(2*cap(bytesAll), gb))
			copy(grown, bytesAll[:gbyte])
			bytesAll = grown
		}
		bytesAll = bytesAll[:cap(bytesAll)]

		// Mini-pass 2: one input-order sweep routing each cell and each
		// key's bytes to their chunk-local stage runs. Both stages are one
		// chunk, so every write stream stays cache-resident; spans are
		// assigned their (computable) global offsets as they pass.
		for k := 0; k < m; k++ {
			h := hs[k]
			b := h >> shift
			cs := sp[k]
			off := int(cs >> lenBits)
			l := int(cs & MaxKeyLen)
			so := int(swpos[b])
			copy(stage[so:so+l], flat[off:off+l])
			swpos[b] = int32(so + l)
			bo := wbpos[b]
			wbpos[b] = bo + l
			p := cwpos[b]
			cstage[p] = brec{Span: bspan(bo, l), H: h, Idx: int32(s + k)}
			cwpos[b] = p + 1
		}
		// Mini-pass 3: flush each stage run with one bulk copy — per-key
		// stores to fresh DRAM serialize on cache-line fills, a bulk
		// memmove streams.
		gp := gbyte
		for b := 0; b < nbkt; b++ {
			rn := int(swpos[b] - srun[b])
			copy(bytesAll[gp:gp+rn], stage[srun[b]:int(srun[b])+rn])
			gp += rn
			copy(brecs[rs[base+b]:], cstage[crun[b]:cwpos[b]])
		}
		gbyte = gb
	}
	bytesAll = bytesAll[:gbyte]
	cfb.S[0].b = flat // pool the grown staging arenas on release
	sgb.S[0].b = stage
	cgb.S[0].r = cstage
	csb.Release()
	chb.Release()
	cgb.Release()
	sgb.Release()
	cfb.Release()
	bb.S[0].b = bytesAll // pool the grown byte buffer; keep it live for the plane

	maxCnt := int32(0)
	for b := 0; b < nbkt; b++ {
		maxCnt = max(maxCnt, cnt[b])
	}
	return carved{nbkt: nbkt, nchunks: nchunks, maxCnt: maxCnt, cnt: cnt,
		rs: rs, rl: rl, brecs: brecs, bytes: bytesAll,
		bb: bb, rb: rb, cb: cb, rsb: rsb, rlb: rlb}
}

// grouper is the per-bucket open-addressing table (the paper's Section 3.3
// hash-table base case, bucket-sized so it stays in cache): slots hold
// 1-based distinct-key ids, gfirst each distinct key's first record (the
// representative the digest gate compares against), and — for ops that emit
// every record — glast/next chain each group's records in input order
// (next is indexed by global cell position). One slot array serves every
// bucket; reset sizes and clears only the prefix the bucket needs, so a
// heavy key inflating one bucket does not tax the others.
type grouper struct {
	slots  []int32
	gfirst []int32
	glast  []int32
	next   []int32

	slb, gfb, glb, nxb *parallel.Buf[int32]
}

func newGrouper(sc *parallel.Scratch, lg *parallel.Ledger, n int, maxCnt int32, chains bool) grouper {
	tsize := 8
	for tsize < int(2*maxCnt) {
		tsize <<= 1
	}
	g := grouper{}
	g.slb = parallel.LeaseBuf[int32](sc, lg, tsize)
	g.gfb = parallel.LeaseBuf[int32](sc, lg, int(maxCnt))
	g.slots, g.gfirst = g.slb.S[:tsize], g.gfb.S
	if chains {
		g.glb = parallel.LeaseBuf[int32](sc, lg, int(maxCnt))
		g.nxb = parallel.LeaseBuf[int32](sc, lg, n)
		g.glast, g.next = g.glb.S, g.nxb.S
	}
	return g
}

// reset prepares the table for a bucket of tot records: the per-bucket
// table is the smallest power of two >= 2*tot, and only that prefix is
// cleared. Returns the probe mask and Slot shift for this bucket.
func (g *grouper) reset(tot int32) (mask uint64, sh uint) {
	tsize := 8
	for tsize < int(2*tot) {
		tsize <<= 1
	}
	clear(g.slots[:tsize])
	return uint64(tsize - 1), hashutil.SlotShift(tsize)
}

func (g *grouper) release() {
	if g.nxb != nil {
		g.nxb.Release()
		g.glb.Release()
	}
	g.gfb.Release()
	g.slb.Release()
	*g = grouper{}
}

// The per-op bucket loops below repeat the probe skeleton on purpose: each
// keeps its innermost loop free of per-record closure calls, which is the
// point of the path. All of them share the same contract: one probe chain
// per record, eq (bytes.Equal) only after full 64-bit digest equality, and
// the eq-counter observing every such fallthrough.

// bucketedSortEq groups a in place: chains record each group's members in
// input order, and the emit walks groups in first-appearance order per
// bucket, gathering caller records directly into the output sweep.
func bucketedSortEq[R any](a []R, appendKey AppendKey[R], hash HashBytes, cfg core.Config) {
	n := len(a)
	c := buildCarved(a, appendKey, hash, cfg)
	rt := parallel.Or(cfg.Runtime)
	sc := rt.Scratch()
	g := newGrouper(sc, cfg.Ledger, n, c.maxCnt, true)
	tb := parallel.LeaseBuf[R](sc, cfg.Ledger, n)
	tmp := tb.S
	ec := cfg.EqCounter()
	pos := 0
	for b := 0; b < c.nbkt; b++ {
		core.CheckCancel(cfg.Ctx, cfg.Ledger)
		if c.cnt[b] == 0 {
			continue
		}
		mask, sh := g.reset(c.cnt[b])
		nd := int32(0)
		for ch := 0; ch < c.nchunks; ch++ {
			r0 := int(c.rs[ch*c.nbkt+b])
			for j, end := r0, r0+int(c.rl[ch*c.nbkt+b]); j < end; j++ {
				h := c.brecs[j].H
				s := hashutil.Slot(h, sh)
				for {
					v := g.slots[s]
					if v == 0 {
						g.slots[s] = nd + 1
						g.gfirst[nd] = int32(j)
						g.glast[nd] = int32(j)
						g.next[j] = -1
						nd++
						break
					}
					d := v - 1
					rp := &c.brecs[g.gfirst[d]]
					if rp.H == h {
						if ec != nil {
							ec.Add(1)
						}
						if bytes.Equal(c.seg(rp.Span), c.seg(c.brecs[j].Span)) {
							g.next[g.glast[d]] = int32(j)
							g.glast[d] = int32(j)
							g.next[j] = -1
							break
						}
					}
					s = (s + 1) & mask
				}
			}
		}
		for d := int32(0); d < nd; d++ {
			for j := g.gfirst[d]; j >= 0; j = g.next[j] {
				tmp[pos] = a[c.brecs[j].Idx]
				pos++
			}
		}
	}
	parallel.CopyIn(rt, a, tmp)
	clear(tmp) // pooled record buffers must not pin caller data
	tb.Release()
	g.release()
	c.release()
}

// bucketedDedup emits each distinct key's first record at insertion time
// (per-bucket first insertion IS the global first occurrence).
func bucketedDedup[R any](a []R, appendKey AppendKey[R], hash HashBytes, cfg core.Config) []R {
	n := len(a)
	c := buildCarved(a, appendKey, hash, cfg)
	rt := parallel.Or(cfg.Runtime)
	sc := rt.Scratch()
	g := newGrouper(sc, cfg.Ledger, n, c.maxCnt, false)
	ib := parallel.LeaseBuf[int32](sc, cfg.Ledger, n)
	ids := ib.S
	ec := cfg.EqCounter()
	pos := 0
	for b := 0; b < c.nbkt; b++ {
		core.CheckCancel(cfg.Ctx, cfg.Ledger)
		if c.cnt[b] == 0 {
			continue
		}
		mask, sh := g.reset(c.cnt[b])
		nd := int32(0)
		for ch := 0; ch < c.nchunks; ch++ {
			r0 := int(c.rs[ch*c.nbkt+b])
			for j, end := r0, r0+int(c.rl[ch*c.nbkt+b]); j < end; j++ {
				h := c.brecs[j].H
				s := hashutil.Slot(h, sh)
				for {
					v := g.slots[s]
					if v == 0 {
						g.slots[s] = nd + 1
						g.gfirst[nd] = int32(j)
						nd++
						ids[pos] = int32(j)
						pos++
						break
					}
					rp := &c.brecs[g.gfirst[v-1]]
					if rp.H == h {
						if ec != nil {
							ec.Add(1)
						}
						if bytes.Equal(c.seg(rp.Span), c.seg(c.brecs[j].Span)) {
							break
						}
					}
					s = (s + 1) & mask
				}
			}
		}
	}
	// Gather survivors in one dedicated pass: interleaving the random
	// a[Idx] reads inside the probe loop stalls it on their misses; a tight
	// gather loop lets the prefetcher overlap them instead.
	out := make([]R, pos)
	for i := 0; i < pos; i++ {
		out[i] = a[c.brecs[ids[i]].Idx]
	}
	ib.Release()
	g.release()
	c.release()
	return out
}

// bucketedCountDistinct sums per-bucket distinct counts (a key lives in
// exactly one bucket).
func bucketedCountDistinct[R any](a []R, appendKey AppendKey[R], hash HashBytes, cfg core.Config) int64 {
	n := len(a)
	c := buildCarved(a, appendKey, hash, cfg)
	rt := parallel.Or(cfg.Runtime)
	g := newGrouper(rt.Scratch(), cfg.Ledger, n, c.maxCnt, false)
	ec := cfg.EqCounter()
	var total int64
	for b := 0; b < c.nbkt; b++ {
		core.CheckCancel(cfg.Ctx, cfg.Ledger)
		if c.cnt[b] == 0 {
			continue
		}
		mask, sh := g.reset(c.cnt[b])
		nd := int32(0)
		for ch := 0; ch < c.nchunks; ch++ {
			r0 := int(c.rs[ch*c.nbkt+b])
			for j, end := r0, r0+int(c.rl[ch*c.nbkt+b]); j < end; j++ {
				h := c.brecs[j].H
				s := hashutil.Slot(h, sh)
				for {
					v := g.slots[s]
					if v == 0 {
						g.slots[s] = nd + 1
						g.gfirst[nd] = int32(j)
						nd++
						break
					}
					rp := &c.brecs[g.gfirst[v-1]]
					if rp.H == h {
						if ec != nil {
							ec.Add(1)
						}
						if bytes.Equal(c.seg(rp.Span), c.seg(c.brecs[j].Span)) {
							break
						}
					}
					s = (s + 1) & mask
				}
			}
		}
		total += int64(nd)
	}
	g.release()
	c.release()
	return total
}

// bucketedSpanCounts is the shared histogram core: per-bucket distinct keys
// with counts, keys as bucketed spans. The caller owns (and must release)
// the returned lease and the carved plane the spans point into.
func bucketedSpanCounts[R any](a []R, appendKey AppendKey[R], hash HashBytes, cfg core.Config,
) (carved, *parallel.Buf[collect.KV[uint64, int64]], int) {
	n := len(a)
	c := buildCarved(a, appendKey, hash, cfg)
	rt := parallel.Or(cfg.Runtime)
	sc := rt.Scratch()
	g := newGrouper(sc, cfg.Ledger, n, c.maxCnt, false)
	ctb := parallel.LeaseBuf[int64](sc, cfg.Ledger, int(c.maxCnt))
	gcnt := ctb.S
	kvb := parallel.LeaseBuf[collect.KV[uint64, int64]](sc, cfg.Ledger, n)
	kv := kvb.S
	ec := cfg.EqCounter()
	pos := 0
	for b := 0; b < c.nbkt; b++ {
		core.CheckCancel(cfg.Ctx, cfg.Ledger)
		if c.cnt[b] == 0 {
			continue
		}
		mask, sh := g.reset(c.cnt[b])
		nd := int32(0)
		for ch := 0; ch < c.nchunks; ch++ {
			r0 := int(c.rs[ch*c.nbkt+b])
			for j, end := r0, r0+int(c.rl[ch*c.nbkt+b]); j < end; j++ {
				h := c.brecs[j].H
				s := hashutil.Slot(h, sh)
				for {
					v := g.slots[s]
					if v == 0 {
						g.slots[s] = nd + 1
						g.gfirst[nd] = int32(j)
						gcnt[nd] = 1
						nd++
						break
					}
					rp := &c.brecs[g.gfirst[v-1]]
					if rp.H == h {
						if ec != nil {
							ec.Add(1)
						}
						if bytes.Equal(c.seg(rp.Span), c.seg(c.brecs[j].Span)) {
							gcnt[v-1]++
							break
						}
					}
					s = (s + 1) & mask
				}
			}
		}
		for d := int32(0); d < nd; d++ {
			kv[pos] = collect.KV[uint64, int64]{Key: c.brecs[g.gfirst[d]].Span, Value: gcnt[d]}
			pos++
		}
	}
	ctb.Release()
	g.release()
	return c, kvb, pos
}

func bucketedHistogram[R, T any](a []R, appendKey AppendKey[R], hash HashBytes, mk func(string, int64) T, cfg core.Config) []T {
	c, kvb, nd := bucketedSpanCounts(a, appendKey, hash, cfg)
	out := Emit(c.seg, kvb.S[:nd], kvAt, mk, cfg)
	kvb.Release()
	c.release()
	return out
}

func bucketedTopK[R, T any](a []R, k int, appendKey AppendKey[R], hash HashBytes, mk func(string, int64) T, cfg core.Config) []T {
	c, kvb, nd := bucketedSpanCounts(a, appendKey, hash, cfg)
	out := Emit(c.seg, rel.SelectTopK(kvb.S[:nd], k, cfg), kvAt, mk, cfg)
	kvb.Release()
	c.release()
	return out
}
