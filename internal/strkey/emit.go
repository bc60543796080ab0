package strkey

import (
	"strings"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/parallel"
)

// KeyBlock is how many emitted keys share one backing string. It is a
// constant, never a function of the worker count, so which keys share a
// backing string never depends on scheduling.
const KeyBlock = 1 << 13

// Emit is the key materializer every string-keyed terminal goes through:
// Histogram and TopK on both planes, and the string pipeline's Histogram and
// TopK. It returns out[i] = mk(key, count) for each in[i], where at reads
// in[i]'s span and count and seg resolves a span to its key bytes.
//
// The emitted keys are cut into blocks of KeyBlock. Each block sums its key
// lengths from the spans, copies its keys into one strings.Builder grown to
// that sum, and slices every key out of the block's string; the blocks fill
// in parallel on cfg's runtime. So a call makes one allocation per block
// instead of one per key, and no key aliases the arena, which is pooled and
// rewritten by the next call. A retained key keeps its own block alive (at
// most KeyBlock keys' bytes); strings.Clone detaches it.
//
// Emit calls no user code. It checks cfg.Ctx once per block, as Build does;
// a caller whose call guard has already closed passes a config without a
// context, so the copy never raises a cancellation.
func Emit[E, T any](seg func(uint64) []byte, in []E, at func(E) (span uint64, count int64),
	mk func(key string, count int64) T, cfg core.Config) []T {
	out := make([]T, len(in))
	ctx, lg := cfg.Ctx, cfg.Ledger
	parallel.Or(cfg.Runtime).ForRange(len(in), KeyBlock, func(lo, hi int) {
		core.CheckCancel(ctx, lg)
		blk := in[lo:hi]
		size := 0
		for _, e := range blk {
			s, _ := at(e)
			size += int(s & MaxKeyLen)
		}
		var b strings.Builder
		b.Grow(size)
		for _, e := range blk {
			s, _ := at(e)
			b.Write(seg(s))
		}
		keys := b.String()
		off := 0
		for i, e := range blk {
			s, c := at(e)
			end := off + int(s&MaxKeyLen)
			out[lo+i] = mk(keys[off:end], c)
			off = end
		}
	})
	return out
}

// kvAt reads an engine histogram entry, whose key is a span.
func kvAt(e collect.KV[uint64, int64]) (uint64, int64) { return e.Key, e.Value }
