package almostmix

import (
	"runtime"
	"testing"
)

// Construction memory budget of one Build of the repo benchmark's
// build-expander shape. Measured with Go 1.24 on linux/amd64: 10.09 MB in
// 1 246 heap objects (10.09 MB and 1 244 under -race), against 10.28 MB
// while every walk run copied the graph into its own CSR, and 21.8 MB in
// 4 411 while the walk trail kept a 4-byte node ID per walk per step and
// overlays grew edge by edge. The budget keeps 7 % and 20 % headroom.
const (
	constructionBudgetBytes   = 10_800_000
	constructionBudgetObjects = 1500
)

// TestConstructionAllocBudget is the construction's memory gate: one
// BuildHierarchy on a random 8-regular graph of 32 nodes with its exact
// lazy mixing time and SuccessMargin 4 — what build-expander builds — stays
// within the budget above. The level walks' trail is most of that heap, so
// a trail that widens again fails here first.
func TestConstructionAllocBudget(t *testing.T) {
	g := NewRandomRegular(32, 8, 1)
	tau, err := MixingTime(g, LazyWalk, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.TauMix = tau
	p.SuccessMargin = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := BuildHierarchy(g, p, 1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	bytes, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("one Build allocates %d B in %d objects", bytes, objects)
	if bytes > constructionBudgetBytes || objects > constructionBudgetObjects {
		t.Fatalf("one Build allocates %d B in %d objects, budget %d B in %d",
			bytes, objects, constructionBudgetBytes, constructionBudgetObjects)
	}
}
