package almostmix

import (
	"runtime"
	"testing"
)

// Construction memory budget of one Build of the repo benchmark's
// build-expander shape. Measured with Go 1.24 on linux/amd64: 6.10 MB in
// 1 227 heap objects (6.10 MB and 1 228 under -race), against 10.09 MB
// while the walks kept a one-byte trail per walk per step, 10.28 MB while
// every walk run also copied the graph into its own CSR, and 21.8 MB in
// 4 411 while the trail kept a 4-byte node ID per walk per step and
// overlays grew edge by edge. The budget keeps 7 % and 20 % headroom.
const (
	constructionBudgetBytes   = 6_530_000
	constructionBudgetObjects = 1475
)

// TestConstructionAllocBudget is the construction's memory gate: one
// BuildHierarchy on a random 8-regular graph of 32 nodes with its exact
// lazy mixing time and SuccessMargin 4 — what build-expander builds — stays
// within the budget above. The largest part of that heap is now the
// emulation measurement (the reversed path copies and pathsched's working
// set, 2.2 MB), then the walk runs' endpoint and source rows (1.5 MB, eight
// bytes per walk) and the kept paths (0.9 MB); anything kept per walk per
// step would be several megabytes more and fails here first.
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
