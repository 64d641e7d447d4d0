package embed

import (
	"slices"
	"testing"
)

// refPartBFS is the per-run search the route rows replaced: a breadth-first
// search over an overlay-wide parent table, restricted to the source's
// part. Kept as the reference RouteRow is checked against.
func refPartBFS(o *Overlay, src int32) (parent []int32) {
	parent = make([]int32, o.Graph.N())
	for i := range parent {
		parent[i] = -1
	}
	parent[src] = src
	queue := []int32{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, h := range o.Graph.Neighbors(int(v)) {
			u := int32(h.To)
			if parent[u] >= 0 || o.PartOf[u] != o.PartOf[src] {
				continue
			}
			parent[u] = v
			queue = append(queue, u)
		}
	}
	return parent
}

// refPath walks the reference parent table back from dst and reverses.
func refPath(parent []int32, src, dst int32) []int32 {
	path := []int32{dst}
	for v := dst; v != src; {
		v = parent[v]
		path = append(path, v)
	}
	slices.Reverse(path)
	return path
}

// Every (source, destination) pair of every part, at every level, yields
// the reference search's path: same neighbour order, same first-discovery
// tie-break. The path is appended behind what the buffer already holds.
func TestRouteRowMatchesReferenceSearch(t *testing.T) {
	h := testHierarchy(t)
	for level := 0; level <= h.Levels; level++ {
		o := h.Overlay(level)
		n := int32(o.Graph.N())
		stride := int32(1)
		if level == 0 {
			stride = 37 // G0 is one part of all 2m nodes: sample the sources
		}
		for src := int32(0); src < n; src += stride {
			row, parent := o.RouteRow(src), refPartBFS(o, src)
			if o.RouteRow(src) != row {
				t.Fatalf("level %d: source %d searched twice", level, src)
			}
			for dst := int32(0); dst < n; dst++ {
				if !o.SamePart(src, dst) {
					continue
				}
				buf, ok := row.AppendPath([]int32{-7}, dst)
				want := refPath(parent, src, dst)
				if !ok || buf[0] != -7 || !slices.Equal(buf[1:], want) {
					t.Fatalf("level %d: path %d→%d = %v (ok=%v), reference %v", level, src, dst, buf, ok, want)
				}
			}
		}
	}
}
