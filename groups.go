package semisort

import (
	"repro/internal/core"
	"repro/internal/parallel"
)

// Group is one contiguous run of equal-key records after a semisort:
// a[Lo:Hi] all share the same key.
type Group struct {
	Lo, Hi int
}

// GroupsEq semisorts a with SortEq and returns the boundaries of the
// resulting key groups, in output order. It is the convenience most
// applications want: "give me each key's records as a slice".
//
//	for _, g := range semisort.GroupsEq(edges, key, hash, eq) {
//	    neighbors := edges[g.Lo:g.Hi]
//	}
func GroupsEq[R, K any](a []R, key func(R) K, hash func(K) uint64, eq func(K, K) bool, opts ...Option) []Group {
	out, err := GroupsEqE(a, key, hash, eq, opts...)
	mustCall(err)
	return out
}

// GroupsEqE is GroupsEq with an error return for cancellable calls; see
// SortEqE for the contract. The sort and the boundary scan run as one
// guarded call: cancellation anywhere returns ctx.Err() with a left in a
// valid but unspecified permutation and no groups.
func GroupsEqE[R, K any](a []R, key func(R) K, hash func(K) uint64, eq func(K, K) bool, opts ...Option) (out []Group, err error) {
	// The options are resolved once: the config built here drives both the
	// sort and the boundary scan (core.SortEq applies the defaults).
	cfg := buildConfig(opts)
	call, aerr := enterCall(&cfg)
	if aerr != nil {
		return nil, aerr
	}
	defer call.done(&err)
	core.SortEq(a, key, hash, eq, cfg)
	cfg.CheckCancel()
	return boundaries(parallel.Or(cfg.Runtime), a, key, eq), nil
}

// GroupsLess is GroupsEq using SortLess (semisort<).
func GroupsLess[R, K any](a []R, key func(R) K, hash func(K) uint64, less func(K, K) bool, opts ...Option) []Group {
	out, err := GroupsLessE(a, key, hash, less, opts...)
	mustCall(err)
	return out
}

// GroupsLessE is GroupsLess with an error return for cancellable calls;
// see GroupsEqE for the contract.
func GroupsLessE[R, K any](a []R, key func(R) K, hash func(K) uint64, less func(K, K) bool, opts ...Option) (out []Group, err error) {
	cfg := buildConfig(opts)
	call, aerr := enterCall(&cfg)
	if aerr != nil {
		return nil, aerr
	}
	defer call.done(&err)
	core.SortLess(a, key, hash, less, cfg)
	cfg.CheckCancel()
	eq := func(x, y K) bool { return !less(x, y) && !less(y, x) }
	return boundaries(parallel.Or(cfg.Runtime), a, key, eq), nil
}

// boundaries locates the group starts of an already-semisorted array in
// parallel (a head is any position whose key differs from its predecessor),
// packing the head indices directly — no O(n) index staging array. It runs
// on the same runtime as the sort so a WithRuntime caller keeps its pool
// isolation for the whole call.
func boundaries[R, K any](rt *parallel.Runtime, a []R, key func(R) K, eq func(K, K) bool) []Group {
	n := len(a)
	if n == 0 {
		return nil
	}
	heads := parallel.PackIndexIn(rt, n, func(i int) bool {
		return i == 0 || !eq(key(a[i-1]), key(a[i]))
	})
	groups := make([]Group, len(heads))
	rt.For(len(heads), 1024, func(g int) {
		hi := n
		if g+1 < len(heads) {
			hi = heads[g+1]
		}
		groups[g] = Group{Lo: heads[g], Hi: hi}
	})
	return groups
}
