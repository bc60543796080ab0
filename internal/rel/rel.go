// Package rel implements database-style bulk relational operators — stable
// first-occurrence deduplication, hash-partitioned equi-joins (inner, semi,
// anti, counting), distinct counting and top-k by frequency — as terminal ops on the
// semisort distribution driver (core.Driver), the way internal/collect
// implements histogram and collect-reduce. These are the paper's headline
// applications of semisort (Section 2.1 motivates deduplication, group-by
// joins and distinct counting): every level is planned and distributed by
// exactly the machinery the sorter uses — the memoizing fused sampler, the
// single fused classify sweep (hash-once, one heavy probe, light-id
// extraction), the skew-adaptive collapse, the absorbing id-plane engines
// with the hash plane carried, pooled heavy tables — so the user hash runs
// exactly once per record per call and every engine improvement to the
// driver serves this whole workload family at once. Dedup and CountDistinct
// are absorbing ops on core.Absorb, the one level loop collect runs on too;
// the join keeps its own two-sided recursion and packs through core's
// output tree.
//
// What makes the ops relational rather than sorting:
//
//   - Dedup absorbs every record of a heavy key during the classify sweep
//     and keeps only the first occurrence (dist.FirstKeep): duplicates
//     beyond the first are never counted, never scattered, never touched
//     again — output is O(distinct) with no post-pass over the input.
//   - Join classifies BOTH relations against one shared sample and heavy
//     table per level (core.Driver.ForeignLevel), so bucket j of either
//     side holds exactly the same key population and co-partitioned bucket
//     pairs join in cache. Heavy keys are joined by broadcast: both sides'
//     heavy records are absorbed where they stand (their indices logged per
//     subarray in input order) and the cross product reads them in place —
//     neither side's heavy records are ever moved.
//   - CountDistinct runs count-only driver passes: a level contributes its
//     promoted heavy-key count, absorbed records carry no payload at all,
//     and leaves count table insertions without materializing output.
//   - TopK reuses histogram's count-only machinery end to end and selects
//     the k most frequent keys by folding per-block bounded heaps
//     deterministically (total order: count descending, then the
//     deterministic histogram emission index).
//
// All ops are internally deterministic: for a fixed seed the output is
// identical at any GOMAXPROCS and any runtime pool size. Output orders are
// deterministic but unspecified (heavy keys of each recursion level first,
// then light buckets by bucket id, like internal/collect). All transient
// state is arena-pooled, so repeated calls allocate little beyond their
// result slice in steady state.
package rel
