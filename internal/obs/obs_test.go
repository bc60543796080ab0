package obs

import (
	"encoding/json"
	"expvar"
	"net/http/httptest"
	"sync"
	"testing"
)

// Drain must merge every shard and leave the sink zeroed for pooling.
func TestSinkDrainMergesAndResets(t *testing.T) {
	var k Sink
	k.Grow(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				k.Classify(10, 3, 2)
				k.Leaf(48, 100)
			}
			k.Level(true, false, false, 5, 7, 123)
			k.Sweep(100, 25, 800, 456)
			k.CountEq()
		}()
	}
	wg.Wait()
	var s CallStats
	k.Drain(&s)
	if s.Classified != 8*1000*10 || s.HashCalls != 8*(1000*3+7) || s.ProbeCalls != 8*1000*2 {
		t.Fatalf("classify counters off: %+v", s)
	}
	if s.Leaves != 8*1000 || s.LeafRecords != 8*1000*48 || s.LeafNS != 8*1000*100 {
		t.Fatalf("leaf counters off: %+v", s)
	}
	if s.Levels != 8 || s.SerialLevels != 8 || s.HeavyKeys != 40 || s.PlanNS != 8*123 {
		t.Fatalf("level counters off: %+v", s)
	}
	if s.Scattered != 800 || s.Absorbed != 200 || s.BytesMoved != 6400 || s.DistributeNS != 8*456 {
		t.Fatalf("sweep counters off: %+v", s)
	}
	if s.EqCalls != 8 {
		t.Fatalf("eq counter off: %+v", s)
	}
	var again CallStats
	k.Drain(&again)
	if again != (CallStats{}) {
		t.Fatalf("sink not zeroed after drain: %+v", again)
	}
}

// Add must fold every field (the counters() table covers the whole struct).
func TestCallStatsAdd(t *testing.T) {
	a := CallStats{Levels: 1, Classified: 10, BytesMoved: 100, LeafNS: 7}
	b := CallStats{Levels: 2, Classified: 5, HashCalls: 3, LeafNS: 1}
	a.Add(b)
	if a.Levels != 3 || a.Classified != 15 || a.HashCalls != 3 || a.BytesMoved != 100 || a.LeafNS != 8 {
		t.Fatalf("Add wrong: %+v", a)
	}
}

func TestLogHistBuckets(t *testing.T) {
	var h AtomicLogHist
	h.Observe(0)
	h.Observe(1)    // bucket 1
	h.Observe(1024) // bucket 11
	h.Observe(1536) // bucket 11
	h.Observe(-5)   // clamped to bucket 0
	snap := h.Snapshot()
	if snap.Counts[0] != 2 || snap.Counts[1] != 1 || snap.Counts[11] != 2 {
		t.Fatalf("bucketing wrong: %v", snap.String())
	}
	if snap.Count() != 5 {
		t.Fatalf("Count = %d, want 5", snap.Count())
	}
}

func TestRegistryServesJSONAndExpvar(t *testing.T) {
	reg := NewRegistry()
	reg.Add("calls", func() any { return CallStats{Levels: 4} })
	rec := httptest.NewRecorder()
	reg.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/semisort", nil))
	var got map[string]CallStats
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if got["calls"].Levels != 4 {
		t.Fatalf("snapshot wrong: %+v", got)
	}

	reg.PublishExpvar("obstest")
	v := expvar.Get("obstest.calls")
	if v == nil {
		t.Fatal("expvar not published")
	}
	// Publishing again must not panic on the duplicate name.
	reg.PublishExpvar("obstest")
	// The expvar reads through the registry: replacing the source shows up.
	reg.Add("calls", func() any { return CallStats{Levels: 9} })
	var via CallStats
	if err := json.Unmarshal([]byte(v.String()), &via); err != nil {
		t.Fatalf("expvar JSON: %v", err)
	}
	if via.Levels != 9 {
		t.Fatalf("expvar snapshot stale: %+v", via)
	}
}
