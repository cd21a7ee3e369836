package ring

import (
	"fmt"
	"slices"
	"testing"
)

func TestOwnerDeterministicAndInRange(t *testing.T) {
	r := New(32)
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("key-%d", i)
		p := r.Owner(k)
		if p < 0 || p >= 32 {
			t.Fatalf("Owner(%q) = %d out of range", k, p)
		}
		if p != r.Owner(k) {
			t.Fatalf("Owner(%q) not deterministic", k)
		}
	}
}

func TestOwnerSpread(t *testing.T) {
	r := New(8)
	counts := make([]int, 8)
	const n = 8000
	for i := 0; i < n; i++ {
		counts[r.Owner(fmt.Sprintf("key-%d", i))]++
	}
	for p, c := range counts {
		if c < n/8/2 || c > n/8*2 {
			t.Errorf("partition %d has %d keys, want ≈%d", p, c, n/8)
		}
	}
}

// TestSplit: shares follow first appearance, except that the chosen
// partition's share leads; every item lands once, in its owner's share, in
// its original order.
func TestSplit(t *testing.T) {
	r := New(4)
	type dep struct {
		key string
		ts  int
	}
	var items []dep
	for i := 0; i < 40; i++ {
		items = append(items, dep{fmt.Sprintf("k%d", i%13), i})
	}
	var appearance []int // owners in order of first appearance
	for _, it := range items {
		if p := r.Owner(it.key); !slices.Contains(appearance, p) {
			appearance = append(appearance, p)
		}
	}
	if len(appearance) != 4 {
		t.Fatalf("fixture spans %d partitions, want all 4", len(appearance))
	}
	for _, first := range []int{-1, appearance[0], appearance[2], appearance[3]} {
		shares := Split(r, items, func(d dep) string { return d.key }, first)
		want := appearance
		if first >= 0 {
			want = append([]int{first}, slices.DeleteFunc(slices.Clone(appearance), func(p int) bool { return p == first })...)
		}
		var got []int
		var seen []dep
		for _, sh := range shares {
			got = append(got, sh.Part)
			for _, it := range sh.Items {
				if r.Owner(it.key) != sh.Part {
					t.Fatalf("first=%d: %q in partition %d's share, owned by %d", first, it.key, sh.Part, r.Owner(it.key))
				}
			}
			if !slices.IsSortedFunc(sh.Items, func(a, b dep) int { return a.ts - b.ts }) {
				t.Fatalf("first=%d: share %d reorders its items: %v", first, sh.Part, sh.Items)
			}
			seen = append(seen, sh.Items...)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("first=%d: share order %v, want %v", first, got, want)
		}
		slices.SortFunc(seen, func(a, b dep) int { return a.ts - b.ts })
		if !slices.Equal(seen, items) {
			t.Fatalf("first=%d: shares hold %v, want each item once", first, seen)
		}
	}
	if got := Split(r, []string{"x"}, Key, 9); len(got) != 1 || got[0].Part != r.Owner("x") {
		t.Fatalf("a first partition owning nothing changed the split: %v", got)
	}
}

func TestNewPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0)
}
