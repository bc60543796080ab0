package core

import (
	"testing"

	"repro/internal/sampling"
)

func TestWithDefaultsPaperParameters(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.LightBuckets != 1<<10 {
		t.Fatalf("n_L default %d, want 2^10 (Section 3.6)", c.LightBuckets)
	}
	if c.BaseCase != 1<<14 {
		t.Fatalf("alpha default %d, want 2^14", c.BaseCase)
	}
	if c.MaxSubarrays != 5000 {
		t.Fatalf("MaxSubarrays default %d, want 5000", c.MaxSubarrays)
	}
	if c.SampleFactor != 500 {
		t.Fatalf("SampleFactor default %d, want 500 (|S| = 500 log n)", c.SampleFactor)
	}
	if c.MaxDepth <= 0 || c.MinSubarray <= 0 {
		t.Fatal("guards must default to positive values")
	}
}

func TestWithDefaultsRoundsLightBuckets(t *testing.T) {
	c := Config{LightBuckets: 1000}.WithDefaults()
	if c.LightBuckets != 1024 {
		t.Fatalf("n_L=1000 must round to 1024, got %d", c.LightBuckets)
	}
	c = Config{LightBuckets: 1}.WithDefaults()
	if c.LightBuckets != 1 {
		t.Fatalf("n_L=1 is a power of two and must stay, got %d", c.LightBuckets)
	}
}

func TestWithDefaultsPreservesExplicit(t *testing.T) {
	c := Config{LightBuckets: 64, BaseCase: 128, MaxSubarrays: 7, SampleFactor: 3, MaxDepth: 5, Seed: 9}.WithDefaults()
	if c.LightBuckets != 64 || c.BaseCase != 128 || c.MaxSubarrays != 7 || c.SampleFactor != 3 || c.MaxDepth != 5 || c.Seed != 9 {
		t.Fatalf("explicit values overwritten: %+v", c)
	}
}

// TestCeilPow2 and TestCeilLog2 pin the sampling helpers core sizes with:
// WithDefaults rounds n_L up with CeilPow2, and the driver's window width
// and sample sizes come from CeilLog2.
func TestCeilPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1023: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := sampling.CeilPow2(in); got != want {
			t.Fatalf("CeilPow2(%d)=%d want %d", in, got, want)
		}
	}
}

func TestCeilLog2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11}
	for in, want := range cases {
		if got := sampling.CeilLog2(in); got != want {
			t.Fatalf("CeilLog2(%d)=%d want %d", in, got, want)
		}
	}
}

func TestWithDefaultsClampsLightBuckets(t *testing.T) {
	// newSorter derives bBits from n_L assuming WithDefaults produced a
	// power of two no larger than 2^15 (heavy buckets must fit under the
	// distribution layer's 2^16 bucket-id ceiling); the old defensive
	// bBits patch-up in newSorter is gone, so pin the invariant here.
	for in, want := range map[int]int{
		1 << 15:        1 << 15,
		1<<15 + 1:      1 << 15,
		1 << 16:        1 << 15,
		1 << 20:        1 << 15,
		(1 << 14) + 17: 1 << 15,
	} {
		if got := (Config{LightBuckets: in}).WithDefaults().LightBuckets; got != want {
			t.Fatalf("LightBuckets=%d: got %d, want %d", in, got, want)
		}
	}
	for _, in := range []int{1, 2, 3, 5, 100, 1000, 1 << 12} {
		got := (Config{LightBuckets: in}).WithDefaults().LightBuckets
		if got&(got-1) != 0 || got < in {
			t.Fatalf("LightBuckets=%d: %d is not the next power of two", in, got)
		}
	}
}
