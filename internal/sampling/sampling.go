// Package sampling implements the Sampling and Bucketing step shared by
// semisort, histogram, and collect-reduce (Alg. 1 lines 2-10): draw a
// random sample S of the records, count per-key occurrences, and promote
// keys with at least `Thresh` sample hits to dedicated heavy buckets. The
// resulting heavy table H maps heavy keys to bucket ids and is immutable
// after construction, so it is read concurrently without synchronization.
package sampling

import (
	"math/bits"
	"slices"

	"repro/internal/hashutil"
	"repro/internal/parallel"
)

// Params configures one sampling round.
type Params struct {
	// SampleSize is |S|; it is clamped to the input length.
	SampleSize int
	// Thresh is the number of sample occurrences that makes a key heavy
	// (the paper uses log2 n').
	Thresh int
	// IDBase is the bucket id assigned to the first heavy key; subsequent
	// heavy keys get consecutive ids (the paper uses IDBase = n_L).
	IDBase int
	// CollapsePercent, when positive, turns on the skew-adaptive light
	// collapse: if at least this percent of the sample draws landed on keys
	// that were promoted to heavy, the round reports Stats.Collapsed and
	// assigns heavy ids from 1 instead of IDBase — the caller is expected
	// to place every light record into the single residue bucket 0 and
	// skip light-id computation for the level entirely. Zero disables the
	// collapse (heavy ids always start at IDBase).
	CollapsePercent int
	// MaxHeavy, when positive, bounds how many keys are promoted (callers
	// with a bucket-id ceiling pass the ids they have left). Keys qualify
	// in first-sampled order; the rest stay light.
	MaxHeavy int
	// Scratch supplies the transient sample-counting tables and the pooled
	// heavy table itself; nil falls back to the shared default arena.
	Scratch *parallel.Scratch
}

// Stats summarizes one sampling round for the caller's level-shape
// decision. The values are pure functions of (input, Params, rng state),
// never of scheduling.
type Stats struct {
	// Draws is the number of sample draws actually taken (|S| clamped).
	Draws int
	// HeavyDraws is how many of those draws landed on a key that ended up
	// heavy; HeavyDraws/Draws estimates the heavy record mass of the level.
	HeavyDraws int
	// Collapsed reports that HeavyDraws crossed Params.CollapsePercent and
	// heavy ids were assigned from 1 (see Params.CollapsePercent).
	Collapsed bool
}

// HeavyTable is the paper's heavy table H. Keys are stored with their user
// hash for fast probing; Order lists the heavy keys by bucket id (Order[i]
// has id IDBase+i), which collect-reduce uses to emit heavy results.
//
// Tables built against a Scratch arena are pooled: Release returns the
// storage for reuse by later levels, which is what keeps skewed inputs
// (one table per recursion level) allocation-free in steady state. Callers
// that outlive the level (collect-reduce holds Order) simply never call
// Release and keep the table.
type HeavyTable[K any] struct {
	hashes []uint64
	keys   []K
	ids    []int32
	used   []bool
	mask   uint64
	shift  uint

	// NH is the number of heavy keys.
	NH int
	// Order holds the heavy keys in bucket-id order.
	Order []K
	// OrderHash holds the heavy keys' user hashes in bucket-id order
	// (OrderHash[i] = hash(Order[i])). Terminal ops that emit heavy records
	// together with a hash plane read it instead of re-hashing: at the fused
	// top level the classify sweep never writes heavy hashes into the plane,
	// so the table is the only place they exist.
	OrderHash []uint64
}

// Slot indices throughout this package come from hashutil.Slot (Fibonacci
// hashing into the table's top bits): recursion levels consume hash windows
// from the LOW end as bucket ids, so at depth >= 1 every record of a
// subproblem shares its low bits and a low-bits index (h & mask) would
// collapse the whole table onto a few linear clusters — while raw TOP bits
// carry no entropy for identity-hashed small integer keys (the "Ours-i"
// variants). Cluster walks still step (i + 1) & mask.
//
// Probe and Resolve split the heavy lookup so the hash-once pipeline can
// defer key extraction without paying a per-record closure: Probe walks the
// cluster on cached hashes alone and reports the first hash-equal slot (or
// -1 — light records, the overwhelming majority, stop here without ever
// touching the user key closure); the caller then extracts the key once
// and calls Resolve to finish with real equality tests.

// Probe returns the first slot whose stored hash equals h, or -1 if no
// stored key can possibly equal a key hashing to h.
func (t *HeavyTable[K]) Probe(h uint64) int32 {
	i := hashutil.Slot(h, t.shift)
	for {
		if !t.used[i] {
			return -1
		}
		if t.hashes[i] == h {
			return int32(i)
		}
		i = (i + 1) & t.mask
	}
}

// Resolve continues a successful Probe: starting at slot (whose stored
// hash equals h), it returns the bucket id of the stored key equal to k,
// or -1 after the cluster is exhausted.
func (t *HeavyTable[K]) Resolve(slot int32, h uint64, k K, eq func(K, K) bool) int32 {
	i := uint64(slot)
	for {
		if t.hashes[i] == h && eq(t.keys[i], k) {
			return t.ids[i]
		}
		i = (i + 1) & t.mask
		if !t.used[i] {
			return -1
		}
	}
}

// Release returns the table's storage to the arena it was built from. The
// caller must be done probing; cached key values are cleared so the pooled
// table does not pin caller records between levels.
func (t *HeavyTable[K]) Release(sc *parallel.Scratch) {
	clear(t.keys)
	clear(t.Order)
	t.Order = t.Order[:0]
	t.OrderHash = t.OrderHash[:0]
	t.NH = 0
	parallel.PutObj(sc, t)
}

// grow (re)shapes a pooled table for nH heavy keys: power-of-two capacity
// at 25% max load, used flags cleared, stale hashes/keys/ids left in place
// (they are unreachable while their used flag is down).
func (t *HeavyTable[K]) grow(nH int) {
	hCap := CeilPow2(4 * nH)
	if cap(t.hashes) < hCap {
		t.hashes = make([]uint64, hCap)
		t.keys = make([]K, hCap)
		t.ids = make([]int32, hCap)
		t.used = make([]bool, hCap)
	} else {
		t.hashes = t.hashes[:hCap]
		t.keys = t.keys[:hCap]
		t.ids = t.ids[:hCap]
		t.used = t.used[:hCap]
		clear(t.used)
	}
	t.mask = uint64(hCap - 1)
	t.shift = hashutil.SlotShift(hCap)
	t.NH = nH
	t.Order = t.Order[:0]
	t.OrderHash = t.OrderHash[:0]
}

func (t *HeavyTable[K]) insert(h uint64, k K, id int32) {
	i := hashutil.Slot(h, t.shift)
	for t.used[i] {
		i = (i + 1) & t.mask
	}
	t.used[i] = true
	t.hashes[i] = h
	t.keys[i] = k
	t.ids[i] = id
}

// BuildHashed runs one sampling round over a, consuming precomputed
// per-record user hashes (the hash-once pipeline: deeper recursion levels
// inherit the permuted hash plane), and returns the heavy table, or nil
// when no key is heavy. Heavy ids are assigned in first-sampled order, so
// the result is a pure function of (a, p, rng state), never of scheduling.
// The user hash closure is never called; the key closure runs only on
// hash-equal sample collisions (duplicate keys) and when materializing
// heavy keys.
func BuildHashed[R, K any](a []R, hs []uint64, key func(R) K, eq func(K, K) bool, p Params, rng *hashutil.RNG) (*HeavyTable[K], Stats) {
	return build(a, key, func(idx int) uint64 { return hs[idx] }, eq, p, rng)
}

// BuildFused is the sampling round of the fused top level, where no cached
// hashes exist yet: sampled records are hashed on the fly through the user
// closures — memoized per record index, so with-replacement re-draws never
// re-hash — and each computed hash is stored into hs at its index. The
// returned buffer lists the distinct sampled indices in increasing order;
// the caller's fused hash+count sweep skips the user hash for exactly
// those records (reading hs instead), which is what keeps the whole-sort
// contract at exactly one user hash call per record. The caller releases
// the buffer once its sweep has consumed it (it may be nil when the round
// was skipped).
func BuildFused[R, K any](a []R, hs []uint64, key func(R) K, hash func(K) uint64, eq func(K, K) bool, p Params, rng *hashutil.RNG) (*HeavyTable[K], *parallel.Buf[int32], Stats) {
	m, ok := sampleDraws(len(a), p)
	if !ok {
		return nil, nil, Stats{}
	}
	sc := p.Scratch
	if sc == nil {
		sc = parallel.Default().Scratch()
	}
	// idx -> hash memo (open addressing keyed by record index).
	memCap := CeilPow2(2 * m)
	memMask := uint64(memCap - 1)
	memIdxBuf := parallel.GetBuf[int32](sc, memCap)
	memHashBuf := parallel.GetBuf[uint64](sc, memCap)
	memUsedBuf := parallel.GetBuf[bool](sc, memCap)
	memUsedBuf.Zero()
	memIdx, memHash, memUsed := memIdxBuf.S, memHashBuf.S, memUsedBuf.S
	sampledBuf := parallel.GetBuf[int32](sc, m)
	sampled := sampledBuf.S[:0]
	hashAt := func(idx int) uint64 {
		i := hashutil.Mix64(uint64(idx)) & memMask
		for memUsed[i] {
			if memIdx[i] == int32(idx) {
				return memHash[i]
			}
			i = (i + 1) & memMask
		}
		h := hash(key(a[idx]))
		hs[idx] = h
		memUsed[i] = true
		memIdx[i] = int32(idx)
		memHash[i] = h
		sampled = append(sampled, int32(idx))
		return h
	}
	t, stats := build(a, key, hashAt, eq, p, rng)
	memUsedBuf.Release()
	memHashBuf.Release()
	memIdxBuf.Release()
	slices.Sort(sampled)
	sampledBuf.S = sampled
	return t, sampledBuf, stats
}

// Adopt builds a heavy table directly from a known heavy-key set — keys
// with their user hashes, typically another op's level-0 heavy keys handed
// over through a pipeline plane — without any sampling draws. Ids are
// assigned from idBase in the given order, so the result is exactly the
// table a sampling round promoting these keys in this order would build.
// The user hash and key closures are never called. The table is pooled
// against sc like a sampled one (Release to return it).
func Adopt[K any](keys []K, hashes []uint64, idBase int, sc *parallel.Scratch) *HeavyTable[K] {
	if sc == nil {
		sc = parallel.Default().Scratch()
	}
	t := parallel.GetObj[HeavyTable[K]](sc)
	t.grow(len(keys))
	for i, k := range keys {
		t.insert(hashes[i], k, int32(idBase+i))
		t.Order = append(t.Order, k)
		t.OrderHash = append(t.OrderHash, hashes[i])
	}
	return t
}

// sampleDraws clamps the round's draw count to the input and reports
// whether the round runs at all (shared by build and BuildFused so the
// fused path can never desync from the plain one on the skip decision).
func sampleDraws(n int, p Params) (m int, ok bool) {
	m = p.SampleSize
	if m > n {
		m = n
	}
	return m, m >= p.Thresh && m > 0
}

// build is the shared sampling round; hashAt supplies the user hash of
// record idx (computed or cached).
func build[R, K any](a []R, key func(R) K, hashAt func(idx int) uint64, eq func(K, K) bool, p Params, rng *hashutil.RNG) (*HeavyTable[K], Stats) {
	n := len(a)
	m, ok := sampleDraws(n, p)
	if !ok {
		return nil, Stats{}
	}

	// Count sampled keys in a small open-addressing multiset; order keeps
	// slots in first-insertion order for deterministic id assignment. The
	// tables are transient and arena-pooled: one sampling round runs per
	// recursion level, so these would otherwise dominate steady-state
	// allocations.
	sc := p.Scratch
	if sc == nil {
		sc = parallel.Default().Scratch()
	}
	tabCap := CeilPow2(2 * m)
	mask, shift := uint64(tabCap-1), hashutil.SlotShift(tabCap)
	slotHashBuf := parallel.GetBuf[uint64](sc, tabCap)
	slotRecBuf := parallel.GetBuf[int32](sc, tabCap) // index into a of the slot's first record
	slotCntBuf := parallel.GetBuf[int32](sc, tabCap)
	orderBuf := parallel.GetBuf[uint64](sc, m) // one entry per new slot, at most one per draw
	slotCntBuf.Zero()
	slotHash, slotRec, slotCnt := slotHashBuf.S, slotRecBuf.S, slotCntBuf.S
	order := orderBuf.S[:0]
	defer func() {
		orderBuf.Release()
		slotCntBuf.Release()
		slotRecBuf.Release()
		slotHashBuf.Release()
	}()
	for j := 0; j < m; j++ {
		idx := rng.Intn(n)
		h := hashAt(idx)
		i := hashutil.Slot(h, shift)
		// The sample key is extracted lazily, at most once per draw: only a
		// hash-equal slot holding a *different* record index needs the real
		// eq test (re-drawing the same index is common — samples are drawn
		// with replacement — and trivially equal).
		var k K
		haveK := false
		for {
			if slotCnt[i] == 0 {
				slotHash[i] = h
				slotRec[i] = int32(idx)
				slotCnt[i] = 1
				order = append(order, i)
				break
			}
			if slotHash[i] == h {
				if slotRec[i] == int32(idx) {
					slotCnt[i]++
					break
				}
				if !haveK {
					k = key(a[idx])
					haveK = true
				}
				if eq(key(a[slotRec[i]]), k) {
					slotCnt[i]++
					break
				}
			}
			i = (i + 1) & mask
		}
	}

	nH, heavyDraws := 0, 0
	for _, i := range order {
		if int(slotCnt[i]) >= p.Thresh {
			if p.MaxHeavy > 0 && nH == p.MaxHeavy {
				break // later qualifiers stay light (first-sampled order)
			}
			nH++
			heavyDraws += int(slotCnt[i])
		}
	}
	stats := Stats{Draws: m, HeavyDraws: heavyDraws}
	if nH == 0 {
		return nil, stats
	}
	idBase := p.IDBase
	if p.CollapsePercent > 0 && heavyDraws*100 >= p.CollapsePercent*m {
		stats.Collapsed = true
		idBase = 1
	}
	t := parallel.GetObj[HeavyTable[K]](sc)
	t.grow(nH)
	id := int32(idBase)
	for _, i := range order {
		if int(slotCnt[i]) >= p.Thresh {
			k := key(a[slotRec[i]])
			t.insert(slotHash[i], k, id)
			t.Order = append(t.Order, k)
			t.OrderHash = append(t.OrderHash, slotHash[i])
			id++
			if int(id)-idBase == nH {
				break
			}
		}
	}
	return t, stats
}

// CeilPow2 returns the smallest power of two >= x (and 1 for x <= 1).
func CeilPow2(x int) int {
	if x <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(x-1))
}

// CeilLog2 returns ceil(log2(x)) for x >= 2, and 1 otherwise.
func CeilLog2(x int) int {
	if x <= 2 {
		return 1
	}
	return bits.Len(uint(x - 1))
}
