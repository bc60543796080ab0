package rel

import (
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/parallel"
)

// Grouped fast paths: once a relation is grouped — equal-key records
// contiguous, with the g+1 group boundaries known (core.Plane.Bounds, the
// Sort stage's output) — the groups ARE a finished exact partition, and the
// ops below skip the distribution driver outright. Dedup is one gather,
// histogram one length read, and an equi-join hashes one representative per
// GROUP instead of one per record (grouped bounds delimit maximal equal-key
// runs, so group keys are distinct within a side and the join table needs no
// chains).

// FirstPerGroup is dedup over a grouped relation: each group's head record,
// in group order. No hashing, no driver, no table — bounds already separate
// the keys exactly.
func FirstPerGroup[R any](rt *parallel.Runtime, a []R, bounds []int32) []R {
	g := len(bounds) - 1
	if g <= 0 {
		return nil
	}
	out := make([]R, g)
	rt.For(g, 1024, func(i int) { out[i] = a[bounds[i]] })
	return out
}

// GroupedHistogram is histogram over a grouped relation: each group's key
// with its length, in group order. key runs once per group; the user hash
// never runs.
func GroupedHistogram[R, K any](rt *parallel.Runtime, a []R, bounds []int32, key func(R) K) []collect.KV[K, int64] {
	g := len(bounds) - 1
	if g <= 0 {
		return nil
	}
	out := make([]collect.KV[K, int64], g)
	rt.For(g, 1024, func(i int) {
		out[i] = collect.KV[K, int64]{Key: key(a[bounds[i]]), Value: int64(bounds[i+1] - bounds[i])}
	})
	return out
}

// JoinGrouped inner-joins two already-grouped relations by matching groups:
// build a distinct-key table over the side with fewer groups (one hash per
// build group), probe with the other side's group heads (one hash per probe
// group), then cross-product every matched group pair — a-records outer,
// b-records inner, pairs in probe-group order. Total user hash calls:
// groups(a) + groups(b), at most one per record and typically far fewer.
// Row order is deterministic (the build direction is a pure function of the
// two group counts) but unspecified. Neither input is modified.
func JoinGrouped[R, S, K, T any](a []R, boundsA []int32, b []S, boundsB []int32,
	keyA func(R) K, keyB func(S) K, hash func(K) uint64, eq func(K, K) bool,
	joinF func(R, S) T, cfg core.Config) []T {
	gA, gB := len(boundsA)-1, len(boundsB)-1
	if gA <= 0 || gB <= 0 {
		return nil
	}
	rt := parallel.Or(cfg.Runtime)
	swap := gA > gB
	var pairs *parallel.Buf[[2]int32]
	if !swap {
		pairs = matchGroups(a, boundsA, keyA, b, boundsB, keyB, hash, eq, cfg)
	} else {
		pairs = matchGroups(b, boundsB, keyB, a, boundsA, keyA, hash, eq, cfg)
	}
	nP := len(pairs.S)
	offsBuf := parallel.GetBuf[int](rt.Scratch(), nP+1)
	offs := offsBuf.S
	total := 0
	for p, pr := range pairs.S {
		ga, gb := pr[0], pr[1]
		if swap {
			ga, gb = pr[1], pr[0]
		}
		offs[p] = total
		total += int(boundsA[ga+1]-boundsA[ga]) * int(boundsB[gb+1]-boundsB[gb])
	}
	offs[nP] = total
	out := make([]T, total)
	// The per-pair cross product is unbounded in the input sizes (|ga|*|gb|
	// rows), so it checks for cancellation once per a-record, like the
	// driver join's heavy broadcast. ctx/ledger are captured by value — a
	// cfg.CheckCancel here would heap-box the whole Config per call.
	ctx, ledger := cfg.Ctx, cfg.Ledger
	cancelable := ctx != nil
	rt.For(nP, 1, func(p int) {
		pr := pairs.S[p]
		ga, gb := pr[0], pr[1]
		if swap {
			ga, gb = pr[1], pr[0]
		}
		o := offs[p]
		bs := b[boundsB[gb]:boundsB[gb+1]]
		for _, ra := range a[boundsA[ga]:boundsA[ga+1]] {
			if cancelable {
				core.CheckCancel(ctx, ledger)
			}
			for _, rb := range bs {
				out[o] = joinF(ra, rb)
				o++
			}
		}
	})
	offsBuf.Release()
	pairs.Release()
	return out
}

// JoinGroupedCount is JoinCount over two already-grouped relations: the
// group matching of JoinGrouped with the cross products replaced by size
// products — one KV per matched group pair, in probe-group order, without
// materializing a row. presA (presB) counts that side by key presence, each
// group as one record, as in JoinCount. Hash calls: one per group of either
// side.
func JoinGroupedCount[R, S, K any](a []R, boundsA []int32, b []S, boundsB []int32,
	keyA func(R) K, keyB func(S) K, hash func(K) uint64, eq func(K, K) bool,
	presA, presB bool, cfg core.Config) []collect.KV[K, int64] {
	gA, gB := len(boundsA)-1, len(boundsB)-1
	if gA <= 0 || gB <= 0 {
		return nil
	}
	rt := parallel.Or(cfg.Runtime)
	swap := gA > gB
	var pairs *parallel.Buf[[2]int32]
	if !swap {
		pairs = matchGroups(a, boundsA, keyA, b, boundsB, keyB, hash, eq, cfg)
	} else {
		pairs = matchGroups(b, boundsB, keyB, a, boundsA, keyA, hash, eq, cfg)
	}
	out := make([]collect.KV[K, int64], len(pairs.S))
	rt.For(len(pairs.S), 1024, func(p int) {
		pr := pairs.S[p]
		ga, gb := pr[0], pr[1]
		if swap {
			ga, gb = pr[1], pr[0]
		}
		na, nb := int64(boundsA[ga+1]-boundsA[ga]), int64(boundsB[gb+1]-boundsB[gb])
		if presA {
			na = 1
		}
		if presB {
			nb = 1
		}
		out[p] = collect.KV[K, int64]{Key: keyA(a[boundsA[ga]]), Value: na * nb}
	})
	pairs.Release()
	return out
}

// matchGroups chains x's groups by key (core.BuildChains over the group
// heads; a grouped side's group keys are distinct, so every chain holds one
// group) and looks up y's group heads in it, returning the matched (xGroup,
// yGroup) pairs in y order. The heads are hashed and compared through one
// driver per side, so the call's CallStats count its hash calls, one per
// group of either side, and its eq calls, one per matched group on
// collision-free hashes. The caller releases the pair buffer.
func matchGroups[X, Y, K any](x []X, bx []int32, keyX func(X) K, y []Y, by []int32, keyY func(Y) K,
	hash func(K) uint64, eq func(K, K) bool, cfg core.Config) *parallel.Buf[[2]int32] {
	gx, gy := len(bx)-1, len(by)-1
	headX := func(i int32) K { return keyX(x[i]) }
	headY := func(i int32) K { return keyY(y[i]) }
	dx := core.NewDriver(gx, headX, hash, eq, cfg)
	dy := core.NewDriver(gy, headY, hash, eq, cfg)
	sc := dx.Scratch()
	hb := parallel.GetBuf[uint64](sc, gx+gy)
	hx, hy := hb.S[:gx], hb.S[gx:]
	dx.HashAll(bx[:gx], hx)
	dy.HashAll(by[:gy], hy)
	c := core.BuildChains(sc, bx[:gx], hx, headX, dx.Eq())
	heads := parallel.GetBuf[int32](sc, gy)
	core.Lookup(c, bx[:gx], headX, by[:gy], hy, headY, dx.Eq(), heads.S)
	pairs := parallel.GetBuf[[2]int32](sc, 0)
	ps := pairs.S[:0]
	for g, xg := range heads.S {
		if xg >= 0 {
			ps = append(ps, [2]int32{xg, int32(g)})
		}
	}
	pairs.S = ps
	heads.Release()
	c.Release(sc)
	hb.Release()
	dy.Release()
	dx.Release()
	return pairs
}
