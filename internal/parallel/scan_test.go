package parallel

import "testing"

func TestPackIndex(t *testing.T) {
	for _, n := range []int{0, 1, 5, 1000, 1 << 16} {
		keep := func(i int) bool { return i%3 == 0 }
		got := PackIndexIn(Default(), n, keep)
		want := 0
		for i := 0; i < n; i++ {
			if keep(i) {
				if got[want] != i {
					t.Fatalf("n=%d: got[%d] = %d, want %d", n, want, got[want], i)
				}
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("n=%d: got %d indices, want %d", n, len(got), want)
		}
	}
}

func TestPackIndexNoneAndAll(t *testing.T) {
	n := 10000
	if got := PackIndexIn(Default(), n, func(int) bool { return false }); len(got) != 0 {
		t.Fatalf("keep-none returned %d indices", len(got))
	}
	got := PackIndexIn(Default(), n, func(int) bool { return true })
	if len(got) != n {
		t.Fatalf("keep-all returned %d indices, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("keep-all got[%d] = %d", i, v)
		}
	}
}
