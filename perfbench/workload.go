package main

import (
	"fmt"
	"time"

	semisort "repro"
)

// op is one public engine call of a round. call runs it once on the
// options it is given and keeps the output; check verifies that output.
type op struct {
	name  string
	prep  func() // untimed: refresh an input the call reorders
	call  func(o []semisort.Option) error
	check func() error
	recs  func() int // input records of one call, both sides for joins
	// stages returns the pipeline's per-stage stats after a traced call.
	stages func() []semisort.StageStats
}

// workload is everything one named workload runs: the five ops over its
// records, and a dedup stream fed from its stream pool.
type workload struct {
	name   string
	ops    []op
	inputs int          // distinct inputs a round cycles through
	use    func(i int)  // untimed: select input i and rebuild its reference
	stream streamSource // the records the dedup stream is fed with
	layer  layerInput   // the workload's keys for the layer probes
	gcEach bool         // collect garbage before each timed call (large calls)
	ref    *ref         // the reference of the selected input
	desc   string
	// prehashed: keys reach the engine already digested (the arena key
	// plane of the string ops), so CallStats counts no user-hash calls.
	prehashed bool
}

// Sizes of the workloads; tests shrink them.
type sizes struct {
	u64, str, small, pool int
}

var fullSizes = sizes{u64: 1 << 20, str: 1 << 19, small: 4096, pool: 1 << 22}

const (
	batchSize = 4096                 // stream flush size
	maxWait   = 2 * time.Millisecond // stream flush deadline
)

// workloads builds each named workload's inputs and references from a seed.
var workloads = map[string]func(seed uint64, sz sizes) *workload{
	"u64-uniform": func(seed uint64, sz sizes) *workload { return u64Workload("u64-uniform", sz.u64, 0, seed) },
	"u64-zipf":    func(seed uint64, sz sizes) *workload { return u64Workload("u64-zipf", sz.u64, 1.2, seed) },
	"str-zipf":    func(seed uint64, sz sizes) *workload { return strWorkload("str-zipf", sz.str, 0.8, seed) },
	"stream-dedup": func(seed uint64, sz sizes) *workload {
		return smallWorkload("stream-dedup", sz.small, sz.pool, 1.2, seed)
	},
}

// u64Workload: n records with keys over [0, n], a distinct-keyed dimension
// side of n/8 records, and the stream fed with the same records.
func u64Workload(name string, n int, s float64, seed uint64) *workload {
	in := genU64(n, newKeyGen(n+1, s), seed)
	dim := genDim64(n/8, seed)
	f := newRef(n + 1)
	keys := keysOf(in)
	f.build(keys, keys, keysOf(dim))
	return &workload{
		name: name, ops: u64Ops(&in, &dim, f), inputs: 1, use: func(int) {}, ref: f,
		stream: u64Stream(in, n+1), layer: u64Layer(in), gcEach: true,
		desc: fmt.Sprintf("%d 16-byte records (%.0f MiB), keys %s over [0, %d], dimension side %d records",
			n, float64(n*16)/(1<<20), keyShape(s), n, n/8),
	}
}

// smallWorkload: the stream pool of Zipf keys; the ops run on consecutive
// small batches of it, the shape of one stream flush.
func smallWorkload(name string, n, pool int, s float64, seed uint64) *workload {
	all := genU64(pool, newKeyGen(pool+1, s), seed)
	dim := genDim64(n/8, seed)
	dimIDs := keysOf(dim)
	f := newRef(pool + 1)
	var in []rec64
	ids := make([]uint64, n)
	w := &workload{
		name: name, ops: u64Ops(&in, &dim, f), inputs: pool / n, ref: f,
		stream: u64Stream(all, pool+1), layer: u64Layer(all[:n]),
		desc: fmt.Sprintf("calls on %d-record batches of a %d-record pool, keys %s over [1, %d], dimension side %d records",
			n, pool, keyShape(s), pool, n/8),
	}
	w.use = func(i int) {
		in = in[:0]
		for j, r := range all[i*n : (i+1)*n] {
			in = append(in, rec64{K: r.K, V: uint64(j)})
			ids[j] = r.K
		}
		f.build(ids, ids, dimIDs)
	}
	w.use(0)
	return w
}

// strWorkload: n string-keyed records whose identities are drawn as in the
// u64 workloads; the dimension side holds the keys of identities 8j+1.
func strWorkload(name string, n int, s float64, seed uint64) *workload {
	ids := make([]uint64, n)
	g, r := newKeyGen(n+1, s), rng{seed}
	for i := range ids {
		ids[i] = g.draw(&r)
	}
	dimIDs := dimKeys(n/8, seed)
	in, dim := renderStr(ids), renderStr(dimIDs)
	f := newRef(n + 1)
	fps := make([]uint64, n)
	for i, r := range in {
		fps[i] = strHash(r.K)
	}
	f.build(ids, fps, dimIDs)
	return &workload{
		name: name, ops: strOps(in, dim, f), inputs: 1, use: func(int) {}, ref: f,
		stream: strStream(in, ids, n+1), layer: strLayer(in, ids), gcEach: true, prehashed: true,
		desc: fmt.Sprintf("%d records with 16-40 byte string keys (12-byte shared prefix), identities %s over [1, %d], dimension side %d records",
			n, keyShape(s), n, n/8),
	}
}

func strFP(r recStr) uint64 { return strHash(r.K) }

func keyShape(s float64) string {
	if s == 0 {
		return "uniform"
	}
	return fmt.Sprintf("Zipf s=%g", s)
}

func keysOf(a []rec64) []uint64 {
	out := make([]uint64, len(a))
	for i, r := range a {
		out[i] = r.K
	}
	return out
}

func u64Ops(in, dim *[]rec64, f *ref) []op {
	var (
		work   []rec64
		kv     []semisort.KeyValue[uint64, uint64]
		kept   []rec64
		rows   []row64
		top    []semisort.KeyCount[uint64]
		stages []semisort.StageStats
	)
	pos := func(r rec64) uint64 { return r.V }
	same := func(a, b rec64) bool { return a.K == b.K }
	one := func() int { return len(*in) }
	both := func() int { return len(*in) + len(*dim) }
	h := semisort.Hash64
	return []op{
		{name: "sort", recs: one,
			prep:  func() { work = append(work[:0], *in...) },
			call:  func(o []semisort.Option) error { return semisort.SortEqE(work, key64, h, eq64, o...) },
			check: func() error { return checkSort(f, work, key64, pos, same) }},
		{name: "collect", recs: one,
			call: func(o []semisort.Option) (err error) {
				kv, err = semisort.CollectReduceE(*in, key64, h, eq64, pos,
					func(a, b uint64) uint64 { return a + b }, 0, o...)
				return err
			},
			check: func() error {
				return checkReduce(f, len(kv), func(i int) uint64 { return pair(kv[i].Key, kv[i].Value) }, true)
			}},
		{name: "dedup", recs: one,
			call: func(o []semisort.Option) (err error) {
				kept, err = semisort.DedupE(*in, key64, h, eq64, o...)
				return err
			},
			check: func() error { return checkDedup(f, kept, key64, pos) }},
		{name: "join", recs: both,
			call: func(o []semisort.Option) (err error) {
				rows, err = semisort.JoinEqE(*in, *dim, key64, key64, h, eq64, join64, o...)
				return err
			},
			check: func() error { return checkJoin(f, rows) }},
		{name: "pipeline", recs: both,
			call: func(o []semisort.Option) (err error) {
				p := semisort.Query(*in, key64, h, eq64, o...).Dedup().JoinEq(*dim, key64)
				top, err = p.TopKE(10)
				stages = p.Stats()
				return err
			},
			check:  func() error { return checkTop10(f, top, f.u64ID) },
			stages: func() []semisort.StageStats { return stages }},
	}
}

func strOps(in, dim []recStr, f *ref) []op {
	var (
		work []recStr
		hist []semisort.KeyCount[string]
		kept []recStr
		rows []row64
		top  []semisort.KeyCount[string]
	)
	pos := func(r recStr) uint64 { return r.V }
	same := func(a, b recStr) bool { return a.K == b.K }
	one := func() int { return len(in) }
	both := func() int { return len(in) + len(dim) }
	return []op{
		{name: "sort", recs: one,
			prep:  func() { work = append(work[:0], in...) },
			call:  func(o []semisort.Option) error { return semisort.SortEqStrE(work, keyStr, o...) },
			check: func() error { return checkSort(f, work, strFP, pos, same) }},
		{name: "collect", recs: one,
			call: func(o []semisort.Option) (err error) {
				hist, err = semisort.HistogramStrE(in, keyStr, o...)
				return err
			},
			check: func() error {
				return checkReduce(f, len(hist), func(i int) uint64 {
					return pair(strHash(hist[i].Key), uint64(hist[i].Count))
				}, false)
			}},
		{name: "dedup", recs: one,
			call: func(o []semisort.Option) (err error) {
				kept, err = semisort.DedupStrE(in, keyStr, o...)
				return err
			},
			check: func() error { return checkDedup(f, kept, strFP, pos) }},
		{name: "join", recs: both,
			call: func(o []semisort.Option) (err error) {
				rows, err = semisort.JoinEqStrE(in, dim, keyStr, keyStr, joinStr, o...)
				return err
			},
			check: func() error { return checkJoin(f, rows) }},
		{name: "pipeline", recs: both,
			call: func(o []semisort.Option) (err error) {
				top, err = semisort.QueryStr(in, keyStr, o...).Dedup().JoinEq(dim, keyStr).TopKE(10)
				return err
			},
			check: func() error { return checkTop10(f, top, f.strKeyID) }},
	}
}

// safeCall runs one engine call, turning a panic into an error: the
// benchmark counts both as failed operations.
func safeCall(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}
