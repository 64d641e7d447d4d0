package route

import (
	"fmt"

	"almostmix/internal/embed"
	"almostmix/internal/pathsched"
	"almostmix/internal/rngutil"
)

// RouteExact measures the same routing execution two ways: with the
// paper's per-level emulation accounting (as Route does) and by expanding
// every packet's full journey — preparation walk, every overlay-edge
// traversal at every level, every portal hop — down to base-graph edges
// and scheduling all packets store-and-forward in one CONGEST schedule.
//
// The exact makespan is the cost of the actual traffic under ideal
// pipelining across phases, so it lower-bounds any faithful execution,
// while the paper-style figure charges a full overlay round per routing
// step; the ratio between the two is the measured slack of the Lemma
// 3.1/3.2 emulation accounting (experiment E12).
type ExactReport struct {
	// Paper is the per-level-accounting report (identical to Route's).
	Paper *Report
	// ExactRounds is the makespan of the fully expanded schedule.
	ExactRounds int
	// Congestion and Dilation are the classic lower bounds of that
	// schedule: max base-edge load and max expanded path length.
	Congestion, Dilation int
}

// traversal records one overlay-edge crossing by a packet. A negative
// edge means "any edge between from and to" (leaf BFS hops, where parallel
// edges are equivalent); portal hops name their exact crossing edge.
type traversal struct {
	level    int
	edge     int32
	from, to int32
}

// RouteExact routes reqs like Route while recording every overlay-edge
// traversal, then expands and schedules the real packet paths.
func RouteExact(h *embed.Hierarchy, reqs []Request, src *rngutil.Source) (*ExactReport, error) {
	ex, _, err := routeExact(h, reqs, src)
	return ex, err
}

// routeExact is RouteExact that also hands back the recorded traversals,
// trace[i] being packet i's overlay-edge crossings in order (the golden
// fingerprints pin them).
func routeExact(h *embed.Hierarchy, reqs []Request, src *rngutil.Source) (*ExactReport, [][]traversal, error) {
	r, err := newRouter(nil, h, reqs, src)
	if err != nil {
		return nil, nil, err
	}
	defer r.release()
	r.trace = make([][]traversal, len(reqs))
	// The traced preparation records its walks, so the physical prefix of
	// each packet's journey is part of the exact schedule.
	prep := r.prepare(reqs, src)

	g0Cost, err := r.runRecursion()
	if err != nil {
		return nil, nil, err
	}
	if err := r.finish(g0Cost, len(reqs)); err != nil {
		return nil, nil, err
	}

	// Expand every packet's journey to a base-graph walk.
	ex := newExpander(h)
	paths := make([][]int32, 0, len(reqs))
	prepPaths, _, _ := prep.Paths(nil)
	for i, path := range prepPaths {
		for _, tr := range r.trace[i] {
			edge := int(tr.edge)
			if edge < 0 {
				edge = ex.edgeBetween(tr.level, tr.from, tr.to)
			}
			path = ex.join(path, tr.level, edge, tr.from)
		}
		paths = append(paths, path)
	}
	sched := pathsched.Schedule(paths)
	if err := pathsched.Validate(paths, func(a, b int32) bool {
		return h.Base.HasEdge(int(a), int(b))
	}); err != nil {
		return nil, nil, fmt.Errorf("route: exact expansion produced a non-walk: %w", err)
	}
	return &ExactReport{
		Paper:       r.report,
		ExactRounds: sched.Makespan,
		Congestion:  sched.Congestion,
		Dilation:    sched.Dilation,
	}, r.trace, nil
}

// expander memoizes the physical expansion of overlay edges.
type expander struct {
	h *embed.Hierarchy
	// memo[level][edge] is the forward (U→V) physical path.
	memo []map[int][]int32
}

func newExpander(h *embed.Hierarchy) *expander {
	ex := &expander{
		h:    h,
		memo: make([]map[int][]int32, h.Levels+1),
	}
	for l := 0; l <= h.Levels; l++ {
		ex.memo[l] = make(map[int][]int32)
	}
	return ex
}

// edgeBetween finds an overlay edge between two vids at the given level:
// the one behind a's port to b (any parallel edge serves).
func (ex *expander) edgeBetween(level int, a, b int32) int {
	g := ex.h.Overlay(level).Graph
	p := g.Port(int(a), int(b))
	if p < 0 {
		panic(fmt.Sprintf("route: no level-%d edge between vids %d and %d", level, a, b))
	}
	return g.Neighbors(int(a))[p].EdgeID()
}

// join appends to path the physical walk of overlay edge `edge` at
// `level`, read from the vid `from`'s owner on: forward along the memoized
// U→V walk, or backward along it from V. The walk's first node is left out
// when path already ends there, since segments meet at a shared physical
// endpoint.
func (ex *expander) join(path []int32, level, edge int, from int32) []int32 {
	seg := ex.forward(level, edge)
	if int(from) == ex.h.Overlay(level).Graph.Edge(edge).U {
		if len(path) > 0 && path[len(path)-1] == seg[0] {
			seg = seg[1:]
		}
		return append(path, seg...)
	}
	j := len(seg) - 1
	if len(path) > 0 && path[len(path)-1] == seg[j] {
		j--
	}
	for ; j >= 0; j-- {
		path = append(path, seg[j])
	}
	return path
}

// forward computes (and memoizes) the U→V physical path of an overlay
// edge.
func (ex *expander) forward(level, edge int) []int32 {
	if p, ok := ex.memo[level][edge]; ok {
		return p
	}
	o := ex.h.Overlay(level)
	below := o.Paths[edge] // stored U→V
	var out []int32
	if level == 0 {
		out = below // already physical
	} else {
		for i := 1; i < len(below); i++ {
			a, b := below[i-1], below[i]
			if a == b {
				continue
			}
			out = ex.join(out, level-1, ex.edgeBetween(level-1, a, b), a)
		}
		if len(out) == 0 {
			// Degenerate all-lazy path: stay at the owner.
			out = []int32{int32(ex.h.VM.Owner(int32(o.Graph.Edge(edge).U)))}
		}
	}
	ex.memo[level][edge] = out
	return out
}
