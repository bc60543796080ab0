// Service: fault containment and observability in a long-lived analytics
// service. One shared runtime serves every request; a slow query is
// cancelled by its deadline mid-flight and a buggy request's callback panic
// is contained — and in both cases the very next request runs on the same
// runtime, full speed, with byte-identical results to a fresh process. The
// whole time, the service's debug endpoint (/debug/semisort, next to
// net/http/pprof) exposes the runtime's admission and fault gauges and the
// ingest stream's queue metrics, so the operator watching the dashboard
// sees the cancellation and the containment as counter ticks, not outages.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	semisort "repro"
)

type event struct {
	User uint64
	Item uint64
}

func user(e event) uint64      { return e.User }
func eqU64(a, b uint64) bool   { return a == b }
func slowHash(x uint64) uint64 { time.Sleep(10 * time.Microsecond); return semisort.Hash64(x) }

func main() {
	// One runtime for the whole service: shared workers, shared recycled
	// buffers, and an in-flight cap so a burst of requests queues at the
	// door (context-aware) instead of piling onto the pool.
	rt := semisort.NewRuntime(0)
	defer rt.Close()
	rt.SetInflightLimit(4)

	// An ingest stream dedups events as they arrive; its batcher gauges
	// (queue depth, per-reason flush counts, commit latency) join the
	// debug page below.
	ingest := semisort.NewDedupStream[event, uint64](user, semisort.Hash64, eqU64,
		semisort.WithBatchSize(4096), semisort.WithStreamOptions(semisort.WithRuntime(rt)))

	// The debug surface: Publish registers the runtime under expvar and
	// returns the JSON registry; Add hangs the stream's gauges off the same
	// page. Mounted next to net/http/pprof: a CPU profile scraped from this
	// very mux splits the engine's time by function (classify, groupEq,
	// absorbLeaf), and the pool workers carry the label semisort=pool-worker.
	reg := semisort.Publish(rt)
	reg.Add("ingest", func() any { return ingest.Metrics() })
	mux := http.NewServeMux()
	mux.Handle("/debug/semisort", reg)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Println("listen:", err)
		return
	}
	go http.Serve(ln, mux)
	fmt.Printf("debug surface at http://%s/debug/semisort\n", ln.Addr())

	events := make([]event, 200_000)
	for i := range events {
		events[i] = event{User: uint64(i) % 1000, Item: uint64(i)}
	}

	// Ingest a slice of the feed through the stream, then read its gauges
	// the way the debug page renders them.
	for _, e := range events[:16384] {
		ingest.Submit(e)
	}
	for ingest.Metrics().FlushBySize < 4 { // all four size-triggered batches
		time.Sleep(time.Millisecond)
	}
	sm := ingest.Metrics()
	fmt.Printf("ingest: %d submitted, %d size-triggered flushes, queue high-water %d\n",
		sm.Submitted, sm.FlushBySize, sm.QueueHighWater)

	// Request 1: a query too slow for its deadline. While it runs, the
	// admission gauges show it in flight; the engine checks the context at
	// every level boundary and classify chunk, so the call returns
	// context.DeadlineExceeded promptly — its pooled buffers discarded,
	// never half-mutated back into the arena — and the cancellation lands
	// on the Cancellations counter with Inflight back at zero.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	inflight := make(chan int64, 1)
	go func() { // the operator's view, mid-query
		for {
			if m := rt.Metrics(); m.Inflight > 0 {
				inflight <- m.Inflight
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()
	top, err := semisort.TopKE(events, 3, user, slowHash, eqU64,
		semisort.WithRuntime(rt), semisort.WithContext(ctx))
	cancel()
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		m := rt.Metrics()
		fmt.Printf("slow query: cancelled by deadline (inflight was %d mid-query; now cancellations=%d inflight=%d)\n",
			<-inflight, m.Cancellations, m.Inflight)
	case err != nil:
		fmt.Println("slow query:", err)
	default:
		fmt.Println("slow query finished anyway:", top)
	}

	// Request 2: a buggy callback. The panic is contained on whatever
	// worker it fired on and re-raised here as a typed *PanicError — the
	// service recovers it, fails this one request, and keeps serving. The
	// containment is one tick on PanicsContained.
	func() {
		defer func() {
			var pe *semisort.PanicError
			if r := recover(); r != nil {
				if pe, _ = r.(*semisort.PanicError); pe == nil {
					panic(r)
				}
				fmt.Printf("buggy query: contained panic %v (panics_contained=%d)\n",
					pe.Value, rt.Metrics().PanicsContained)
			}
		}()
		n := 0
		buggy := func(x uint64) uint64 {
			if n++; n == 1000 {
				panic("bug in request handler")
			}
			return semisort.Hash64(x)
		}
		semisort.Histogram(events, user, buggy, eqU64, semisort.WithRuntime(rt))
	}()

	// Request 3: the same runtime keeps serving — full parallelism, clean
	// pools — right after both failures.
	top, err = semisort.TopKE(events, 3, user, semisort.Hash64, eqU64,
		semisort.WithRuntime(rt), semisort.WithContext(context.Background()))
	if err != nil {
		fmt.Println("healthy query:", err)
		return
	}
	fmt.Println("healthy query on the same runtime:")
	for _, kc := range top {
		fmt.Printf("  user %4d: %d events\n", kc.Key, kc.Count)
	}

	// Finally, what the dashboard scrapes: the debug page itself.
	resp, err := http.Get("http://" + ln.Addr().String() + "/debug/semisort")
	if err != nil {
		fmt.Println("debug fetch:", err)
		return
	}
	defer resp.Body.Close()
	var page struct {
		Runtime semisort.RuntimeMetrics `json:"runtime"`
		Ingest  semisort.StreamMetrics  `json:"ingest"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		fmt.Println("debug decode:", err)
		return
	}
	if err := ingest.Close(); err != nil {
		fmt.Println("ingest close:", err)
	}
	fmt.Printf("debug page: jobs=%d cancellations=%d panics_contained=%d ingest_flushes=%d\n",
		page.Runtime.Jobs, page.Runtime.Cancellations, page.Runtime.PanicsContained,
		page.Ingest.Flushes)
}
