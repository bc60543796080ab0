// Property tests for the streaming API: incremental results over arbitrary
// batch splits — including fault-then-retry interleavings — must equal the
// one-shot op on the concatenated input, and the backpressure path must
// compose with admission control without deadlock.
package semisort_test

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	semisort "repro"
	"repro/internal/israce"
)

type ev struct {
	K uint64
	V uint64
}

func evKey(e ev) uint64     { return e.K }
func evEq(a, b uint64) bool { return a == b }
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func evData(n int, domain uint64, seed uint64) []ev {
	a := make([]ev, n)
	for i := range a {
		a[i] = ev{K: mix64(seed+uint64(i)) % domain, V: uint64(i)}
	}
	return a
}

// runDedupStream pushes data through a DedupStream with the given batch
// size (size-triggered flushes only, so batch boundaries are exactly
// data[i*b:(i+1)*b]) and returns the per-record results plus the stream's
// final distinct count. Close is checked against wantCloseErr.
func runDedupStream(t *testing.T, data []ev, batch int, opts []semisort.StreamOption,
	wantCloseErr bool) ([]semisort.StreamResult[semisort.DedupKept], int64) {
	t.Helper()
	all := append([]semisort.StreamOption{
		semisort.WithBatchSize(batch), semisort.WithMaxWait(-1),
	}, opts...)
	s := semisort.NewDedupStream[ev, uint64](evKey, semisort.Hash64, evEq, all...)
	chans := make([]<-chan semisort.StreamResult[semisort.DedupKept], len(data))
	for i, e := range data {
		chans[i] = s.Submit(e)
	}
	err := s.Close()
	if wantCloseErr == (err == nil) {
		t.Fatalf("Close error = %v, want error: %v", err, wantCloseErr)
	}
	res := make([]semisort.StreamResult[semisort.DedupKept], len(data))
	for i, c := range chans {
		res[i] = <-c
	}
	return res, s.Distinct()
}

// oneShotFirstOccurrence returns, per record index, whether it is the
// first occurrence of its key in data — the reference a streaming dedup
// over any batch split must reproduce.
func oneShotFirstOccurrence(data []ev) ([]bool, int64) {
	seen := map[uint64]bool{}
	kept := make([]bool, len(data))
	for i, e := range data {
		if !seen[e.K] {
			seen[e.K] = true
			kept[i] = true
		}
	}
	return kept, int64(len(seen))
}

// TestDedupStreamEquivalence: random batch sizes x key domains (uniform
// through heavily duplicated): per-record Kept flags and the final
// distinct count equal the one-shot reference on the concatenated input.
func TestDedupStreamEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		n := 200 + rng.Intn(4000)
		batch := 1 + rng.Intn(700)
		domain := uint64(1 + rng.Intn(2*n))
		if trial%3 == 0 {
			domain = uint64(1 + rng.Intn(8)) // all-heavy
		}
		data := evData(n, domain, uint64(trial))
		res, distinct := runDedupStream(t, data, batch, nil, false)
		wantKept, wantDistinct := oneShotFirstOccurrence(data)
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("trial %d (n=%d b=%d dom=%d): record %d failed: %v", trial, n, batch, domain, i, r.Err)
			}
			if r.Out.Kept != wantKept[i] {
				t.Fatalf("trial %d (n=%d b=%d dom=%d): record %d Kept=%v, want %v",
					trial, n, batch, domain, i, r.Out.Kept, wantKept[i])
			}
		}
		if distinct != wantDistinct {
			t.Fatalf("trial %d: Distinct=%d, want %d", trial, distinct, wantDistinct)
		}
		// The per-item running count after the final batch equals the total.
		if last := res[len(res)-1].Out.Distinct; last != wantDistinct {
			t.Fatalf("trial %d: final batch Distinct=%d, want %d", trial, last, wantDistinct)
		}
	}
}

// TestDedupStreamFaultThenRetry: a flush whose first attempt dies (flush
// hook panic at epoch k) is retried and commits — the fault-then-retry
// interleaving must be invisible in the results.
func TestDedupStreamFaultThenRetry(t *testing.T) {
	data := evData(3000, 200, 99)
	var fired atomic.Bool
	hook := func(epoch int64, records int) {
		if epoch == 2 && fired.CompareAndSwap(false, true) {
			panic("transient flush fault")
		}
	}
	res, distinct := runDedupStream(t, data, 256, []semisort.StreamOption{
		semisort.WithFlushHook(hook),
		semisort.WithStreamRetry(2, time.Microsecond),
		semisort.WithStreamRetryIf(func(error) bool { return true }),
	}, false)
	if !fired.Load() {
		t.Fatal("fault never injected")
	}
	wantKept, wantDistinct := oneShotFirstOccurrence(data)
	for i, r := range res {
		if r.Err != nil || r.Out.Kept != wantKept[i] {
			t.Fatalf("record %d after retry: (%+v), want Kept=%v", i, r, wantKept[i])
		}
	}
	if distinct != wantDistinct {
		t.Fatalf("Distinct=%d, want %d", distinct, wantDistinct)
	}
}

// TestTopKStreamEquivalence: with no decay, streamed weights over any
// batch split equal the one-shot histogram of the concatenation; the
// top-k weight vector matches.
func TestTopKStreamEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 8; trial++ {
		n := 500 + rng.Intn(3000)
		batch := 1 + rng.Intn(500)
		domain := uint64(1 + rng.Intn(n/2+1))
		data := evData(n, domain, uint64(100+trial))
		s := semisort.NewTopKStream[ev, uint64](evKey, semisort.Hash64, evEq,
			semisort.WithBatchSize(batch), semisort.WithMaxWait(-1))
		var chans []<-chan semisort.StreamResult[struct{}]
		for _, e := range data {
			chans = append(chans, s.Submit(e))
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		for i, c := range chans {
			if r := <-c; r.Err != nil {
				t.Fatalf("record %d: %v", i, r.Err)
			}
		}
		ref := map[uint64]float64{}
		for _, e := range data {
			ref[e.K]++
		}
		top := s.TopK(len(ref) + 10)
		if len(top) != len(ref) {
			t.Fatalf("trial %d: tracked %d keys, ref %d", trial, len(top), len(ref))
		}
		for i, kw := range top {
			if ref[kw.Key] != kw.Weight {
				t.Fatalf("trial %d: key %d weight %v, ref %v", trial, kw.Key, kw.Weight, ref[kw.Key])
			}
			if i > 0 && kw.Weight > top[i-1].Weight {
				t.Fatalf("trial %d: TopK not weight-descending at %d", trial, i)
			}
		}
	}
}

// TestTopKStreamDecay: an exponentially-decayed window forgets: a key hot
// only in early epochs decays below a later burst, and pruning drops it
// entirely once it sinks under the threshold.
func TestTopKStreamDecay(t *testing.T) {
	s := semisort.NewTopKStream[ev, uint64](evKey, semisort.Hash64, evEq,
		semisort.WithBatchSize(64), semisort.WithMaxWait(-1),
		semisort.WithDecay(0.5, 4))
	// Epoch 1: key 1 x64 (weight 64). Epochs 2..6: key 2 x64 each. By the
	// final commit key 1 has decayed to 64*0.5^5 = 2 < 4 and is pruned;
	// key 2's decayed sum is 124.
	var chans []<-chan semisort.StreamResult[struct{}]
	for i := 0; i < 64; i++ {
		chans = append(chans, s.Submit(ev{K: 1}))
	}
	for e := 0; e < 5; e++ {
		for i := 0; i < 64; i++ {
			chans = append(chans, s.Submit(ev{K: 2}))
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for _, c := range chans {
		if r := <-c; r.Err != nil {
			t.Fatalf("submit: %v", r.Err)
		}
	}
	top := s.TopK(2)
	if len(top) != 1 || top[0].Key != 2 {
		t.Fatalf("key 1 should have decayed below the prune threshold: %+v (tracked %d)", top, s.Tracked())
	}
}

// TestJoinStreamEquivalence: streamed probes against an incrementally
// committed build side produce, per probe record, exactly the matches of
// the one-shot reference on the full build relation.
func TestJoinStreamEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 6; trial++ {
		nb := 300 + rng.Intn(1000)
		np := 500 + rng.Intn(2000)
		domain := uint64(1 + rng.Intn(300))
		build := evData(nb, domain, uint64(500+trial))
		probes := evData(np, domain, uint64(900+trial))
		s := semisort.NewJoinStream[ev, ev, uint64, uint64](evKey, evKey, semisort.Hash64, evEq,
			func(r, b ev) uint64 { return r.V<<32 | b.V },
			semisort.WithBatchSize(128), semisort.WithMaxWait(-1))
		// Commit the build side in random chunks before any probe.
		for lo := 0; lo < nb; {
			hi := lo + 1 + rng.Intn(200)
			if hi > nb {
				hi = nb
			}
			if err := s.AddBuild(build[lo:hi]); err != nil {
				t.Fatalf("AddBuild: %v", err)
			}
			lo = hi
		}
		if s.BuildLen() != nb {
			t.Fatalf("BuildLen %d, want %d", s.BuildLen(), nb)
		}
		ref := map[uint64][]uint64{}
		for _, b := range build {
			ref[b.K] = append(ref[b.K], b.V)
		}
		chans := make([]<-chan semisort.StreamResult[[]uint64], np)
		for i, p := range probes {
			chans[i] = s.Submit(p)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		for i, c := range chans {
			r := <-c
			if r.Err != nil {
				t.Fatalf("probe %d: %v", i, r.Err)
			}
			want := ref[probes[i].K]
			if len(r.Out) != len(want) {
				t.Fatalf("trial %d probe %d: %d matches, want %d", trial, i, len(r.Out), len(want))
			}
			for j, got := range r.Out {
				if got != probes[i].V<<32|want[j] {
					t.Fatalf("trial %d probe %d match %d: %x", trial, i, j, got)
				}
			}
		}
	}
}

// TestStreamSentinels: the fault.go re-exports match what the stream
// delivers — ErrQueueFull from a shedding stream, ErrStreamClosed after
// Close — via errors.Is. The queue holds one record: the test waits until
// the flusher has taken the first record and parked in the blocked hash,
// queues a second, and the third must shed. (Waiting on a result the parked
// flusher cannot deliver would hang whenever the flusher took a record
// before the next Submit.)
func TestStreamSentinels(t *testing.T) {
	block := make(chan struct{})
	parked := make(chan struct{}, 1)
	blockHash := func(k uint64) uint64 {
		select {
		case parked <- struct{}{}:
		default:
		}
		<-block
		return semisort.Hash64(k)
	}
	s := semisort.NewDedupStream[ev, uint64](evKey, blockHash, evEq,
		semisort.WithBatchSize(1), semisort.WithMaxWait(-1),
		semisort.WithQueueDepth(1), semisort.WithShedding())
	s.Submit(ev{K: 1})
	<-parked
	s.Submit(ev{K: 2}) // fills the queue
	if r := <-s.Submit(ev{K: 3}); !errors.Is(r.Err, semisort.ErrQueueFull) {
		t.Fatalf("Submit to a full shedding stream: %v, want ErrQueueFull", r.Err)
	}
	close(block)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if r := <-s.Submit(ev{K: 2}); !errors.Is(r.Err, semisort.ErrStreamClosed) {
		t.Fatalf("post-Close Submit: %v, want ErrStreamClosed", r.Err)
	}
}

// TestStreamNoAdmissionDeadlock is the regression test for the
// double-admission hazard: producers blocked on a full stream queue hold
// NO admission slot, and the stream's flusher acquires exactly one slot
// per flush (inside the driver call) — so an inflight limit of 1, a
// concurrent engine call hogging the slot, and a wedged-full queue must
// still drain completely once the slot frees.
func TestStreamNoAdmissionDeadlock(t *testing.T) {
	rt := semisort.NewRuntime(2)
	defer rt.Close()
	rt.SetInflightLimit(1)

	// A competing engine call that holds the single admission slot for a
	// while: its hash callback sleeps, so the call (and the slot) lingers.
	slow := func(k uint64) uint64 { time.Sleep(50 * time.Microsecond); return semisort.Hash64(k) }
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		data := evData(2000, 1000, 1)
		semisort.Histogram(data, evKey, slow, evEq, semisort.WithRuntime(rt))
	}()

	s := semisort.NewDedupStream[ev, uint64](evKey, semisort.Hash64, evEq,
		semisort.WithBatchSize(64), semisort.WithQueueDepth(64), semisort.WithMaxWait(-1),
		semisort.WithStreamOptions(semisort.WithRuntime(rt)))
	// >> queue depth so producers must block; a multiple of the batch size
	// so every batch flushes by size (the deadline is disabled) and all
	// results settle before Close.
	data := evData(4096, 500, 2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		chans := make([]<-chan semisort.StreamResult[semisort.DedupKept], len(data))
		for i, e := range data {
			chans[i] = s.Submit(e)
		}
		for _, c := range chans {
			if r := <-c; r.Err != nil {
				t.Errorf("record failed: %v", r.Err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("stream + SetInflightLimit(1) + competing admitted call deadlocked")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	want, _ := oneShotFirstOccurrence(data)
	_ = want // per-record flags already checked in the equivalence test
}

// TestStreamFlushTimeout: a per-flush deadline cancels a wedged flush; a
// retry with a fresh deadline commits it when the wedge was transient.
func TestStreamFlushTimeout(t *testing.T) {
	var calls atomic.Int64
	wedgeOnce := func(k uint64) uint64 {
		if calls.Add(1) == 1 {
			time.Sleep(300 * time.Millisecond) // >> flush timeout
		}
		return semisort.Hash64(k)
	}
	s := semisort.NewDedupStream[ev, uint64](evKey, wedgeOnce, evEq,
		semisort.WithBatchSize(8), semisort.WithMaxWait(-1),
		semisort.WithFlushTimeout(50*time.Millisecond),
		semisort.WithStreamRetry(2, time.Millisecond))
	chans := make([]<-chan semisort.StreamResult[semisort.DedupKept], 8)
	for i := range chans {
		chans[i] = s.Submit(ev{K: uint64(i)})
	}
	for i, c := range chans {
		if r := <-c; r.Err != nil {
			t.Fatalf("record %d after deadline retry: %v", i, r.Err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if s.Distinct() != 8 {
		t.Fatalf("Distinct=%d, want 8", s.Distinct())
	}
}

// TestDedupStreamHashOnce: a DedupStream calls the user hash exactly once
// per submitted record. The seen-set probe takes each survivor's hash from
// the driver call's output plane instead of hashing it again.
func TestDedupStreamHashOnce(t *testing.T) {
	for _, c := range []struct {
		batch, batches int
		domain         uint64
	}{
		{64, 20, 50},       // every batch repeats keys of earlier ones
		{4096, 4, 1 << 20}, // mostly distinct
		{4096, 4, 300},     // heavy keys
	} {
		var calls atomic.Int64
		hash := func(k uint64) uint64 { calls.Add(1); return semisort.Hash64(k) }
		data := evData(c.batch*c.batches, c.domain, c.domain)
		s := semisort.NewDedupStream[ev, uint64](evKey, hash, evEq,
			semisort.WithBatchSize(c.batch), semisort.WithMaxWait(-1))
		chans := make([]<-chan semisort.StreamResult[semisort.DedupKept], len(data))
		for i, e := range data {
			chans[i] = s.Submit(e)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		wantKept, _ := oneShotFirstOccurrence(data)
		for i, ch := range chans {
			if r := <-ch; r.Err != nil || r.Out.Kept != wantKept[i] {
				t.Fatalf("batch %d domain %d: record %d (%+v), want Kept=%v", c.batch, c.domain, i, r, wantKept[i])
			}
		}
		if got := calls.Load(); got != int64(len(data)) {
			t.Errorf("batch %d domain %d: %d hash calls for %d records, want exactly one per record",
				c.batch, c.domain, got, len(data))
		}
	}
}

// TestDedupStreamSteadyAllocs: after warm-up, a DedupStream allocates per
// record only the result channel Submit returns (two objects) and per
// flush a small constant: the flusher's batch, the processor's wrapped
// records, outputs and staged delta are reused across flushes.
func TestDedupStreamSteadyAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation bounds are meaningless under -race instrumentation")
	}
	const batch, batches = 4096, 4
	const n = batch * batches
	s := semisort.NewDedupStream[ev, uint64](evKey, semisort.Hash64, evEq,
		semisort.WithBatchSize(batch), semisort.WithMaxWait(-1))
	data := make([]ev, n)
	chans := make([]<-chan semisort.StreamResult[semisort.DedupKept], n)
	var cycles uint64
	cycle := func() {
		// Every cycle draws from 4096 new keys, each about four times, so
		// every flush stages and commits new keys.
		cycles++
		for i := range data {
			data[i] = ev{K: cycles<<32 | mix64(uint64(i))%4096}
		}
		for i, e := range data {
			chans[i] = s.Submit(e)
		}
		for _, c := range chans {
			if r := <-c; r.Err != nil {
				t.Fatalf("record failed: %v", r.Err)
			}
		}
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	perCycle := testing.AllocsPerRun(5, cycle)
	if perFlush := (perCycle - 2*n) / batches; perFlush > 16 {
		t.Errorf("%.0f objects per cycle of %d records: %.1f per flush beyond the 2 per record, want <= 16",
			perCycle, n, perFlush)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// FuzzStreamDedup fuzzes the batch-split space: any (n, batch, domain,
// seed) must make the incremental dedup equal the one-shot reference.
func FuzzStreamDedup(f *testing.F) {
	f.Add(uint16(100), uint8(7), uint16(13), uint64(1))
	f.Add(uint16(1000), uint8(64), uint16(3), uint64(2))
	f.Add(uint16(513), uint8(1), uint16(512), uint64(3))
	f.Fuzz(func(t *testing.T, n uint16, batch uint8, domain uint16, seed uint64) {
		nn := int(n)%2048 + 1
		b := int(batch)%256 + 1
		dom := uint64(domain)%1024 + 1
		data := evData(nn, dom, seed)
		res, distinct := runDedupStream(t, data, b, nil, false)
		wantKept, wantDistinct := oneShotFirstOccurrence(data)
		for i, r := range res {
			if r.Err != nil || r.Out.Kept != wantKept[i] {
				t.Fatalf("n=%d b=%d dom=%d: record %d (%+v), want Kept=%v", nn, b, dom, i, r, wantKept[i])
			}
		}
		if distinct != wantDistinct {
			t.Fatalf("n=%d b=%d dom=%d: Distinct=%d, want %d", nn, b, dom, distinct, wantDistinct)
		}
	})
}
