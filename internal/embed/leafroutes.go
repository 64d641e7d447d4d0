package embed

import (
	"slices"
	"sync"
	"sync/atomic"
)

// RouteRow is the breadth-first tree of one overlay part rooted at a
// source virtual node: for every member of the part, its hop distance from
// the source and the member before it on the shortest path. Neighbours are
// explored in adjacency order and a node keeps the first predecessor that
// discovers it, so the paths a row yields are a fact about the overlay,
// not about who asks. A row is immutable once RouteRow returns it.
type RouteRow struct {
	members []int32 // the part's vids, ascending (shared by the part's rows)
	local   []int32 // vid → index into its part's members (overlay-wide)
	pred    []int32 // pred[i]: index of the member before members[i]; the source's is its own
	depth   []int32 // depth[i]: hops from the source to members[i], -1 when unreachable
}

// AppendPath appends the node sequence source … dst to buf and returns the
// extended slice; ok is false, and buf unchanged, when dst is unreachable.
// dst must lie in the source's part.
func (r *RouteRow) AppendPath(buf []int32, dst int32) (out []int32, ok bool) {
	i := r.local[dst]
	d := int(r.depth[i])
	if d < 0 {
		return buf, false
	}
	n := len(buf)
	buf = slices.Grow(buf, d+1)[:n+d+1]
	for k := n + d; k >= n; k-- {
		buf[k] = r.members[i]
		i = r.pred[i]
	}
	return buf, true
}

// routeTable is an overlay's routing table: the part membership index and
// one RouteRow per source vid that has been asked for. Nothing is built
// until the first RouteRow call, so constructing a hierarchy pays nothing
// for it, and the memory held is the sum, over the sources used, of their
// part sizes.
type routeTable struct {
	index   sync.Once
	local   []int32 // vid → index within its part
	partAt  []int32 // members of part p are members[partAt[p]:partAt[p+1]]
	members []int32 // vids grouped by part, ascending within a part
	rows    []atomic.Pointer[RouteRow]
}

// buildIndex groups the vids by part (a counting sort on PartOf).
func (t *routeTable) buildIndex(partOf []int32) {
	parts := int32(0)
	for _, p := range partOf {
		parts = max(parts, p+1)
	}
	t.partAt = make([]int32, parts+1)
	for _, p := range partOf {
		t.partAt[p+1]++
	}
	for p := int32(0); p < parts; p++ {
		t.partAt[p+1] += t.partAt[p]
	}
	t.local = make([]int32, len(partOf))
	t.members = make([]int32, len(partOf))
	fill := make([]int32, parts)
	for vid, p := range partOf {
		t.local[vid] = fill[p]
		t.members[t.partAt[p]+fill[p]] = int32(vid)
		fill[p]++
	}
	t.rows = make([]atomic.Pointer[RouteRow], len(partOf))
}

// RouteRow returns the shortest-path tree of src's part rooted at src. The
// row is computed the first time a source is asked for and kept for the
// life of the overlay; concurrent callers are safe and all see the same
// row (two that race to fill one compute the same tree, and the first
// published wins).
func (o *Overlay) RouteRow(src int32) *RouteRow {
	t := &o.routes
	t.index.Do(func() { t.buildIndex(o.PartOf) })
	if row := t.rows[src].Load(); row != nil {
		return row
	}
	row := o.searchFrom(src)
	if !t.rows[src].CompareAndSwap(nil, row) {
		row = t.rows[src].Load()
	}
	return row
}

// searchFrom runs the breadth-first search that fills src's row. Overlay
// edges never leave a part — buildLevel keeps a walk only when it ends in
// the walker's own part, G0 is a single part, and Hierarchy.Validate checks
// it — so the search indexes every neighbour within the part unfiltered.
func (o *Overlay) searchFrom(src int32) *RouteRow {
	t := &o.routes
	part := o.PartOf[src]
	members := t.members[t.partAt[part]:t.partAt[part+1]]
	size := len(members)
	back := make([]int32, 2*size)
	row := &RouteRow{
		members: members,
		local:   t.local,
		pred:    back[:size:size],
		depth:   back[size:],
	}
	for i := range row.depth {
		row.depth[i] = -1
	}
	s := t.local[src]
	row.pred[s], row.depth[s] = s, 0
	queue := make([]int32, 1, size)
	queue[0] = s
	for head := 0; head < len(queue); head++ {
		i := queue[head]
		for _, h := range o.Graph.Neighbors(int(members[i])) {
			j := t.local[h.To]
			if row.depth[j] >= 0 {
				continue
			}
			row.pred[j], row.depth[j] = i, row.depth[i]+1
			queue = append(queue, j)
		}
	}
	return row
}
