package graph

// Subgraph is the induced-subgraph view of a cluster of nodes: a
// standalone Graph on local IDs 0..len(nodes)-1 plus the relabeling maps
// in both directions and the list of boundary edges (parent edges with
// exactly one endpoint inside the cluster). It is the unit the expander
// decomposition hands to the per-cluster embedding: cluster-local
// algorithms run on G, and the stitching layer translates node and edge
// IDs back to the parent graph.
type Subgraph struct {
	// G is the induced subgraph in local IDs. Edge weights are copied
	// from the parent, so weight-dependent algorithms (MST) see the
	// parent's weights.
	G *Graph

	parent   *Graph
	global   []int32 // local node -> parent node
	local    []int32 // parent node -> local node, -1 outside the cluster
	edgeGlob []int32 // local edge ID -> parent edge ID
	boundary []BoundaryEdge
}

// BoundaryEdge is a parent-graph edge with exactly one endpoint inside
// the cluster. Both endpoints are parent node IDs.
type BoundaryEdge struct {
	EdgeID  int // edge ID in the parent graph
	Inside  int // the endpoint inside the cluster
	Outside int // the endpoint outside the cluster
}

// InducedSubgraph returns the subgraph induced by nodes, relabeled to
// local IDs in the order given. Out-of-range or duplicate nodes panic,
// matching Build's contract for programmatic construction errors.
//
// The induced graph is built on the streaming Build path: the internal
// parent edges are emitted twice, in parent edge-ID order, instead of
// materialized, so the adjacency lands in one flat arena. Local edge IDs
// enumerate that sequence (GlobalEdge maps them back), and because the
// order matches the parent's, the view of the full node set reproduces
// the parent graph exactly — same edge IDs, same port order.
func (g *Graph) InducedSubgraph(nodes []int) *Subgraph {
	local := make([]int32, g.n)
	for i := range local {
		local[i] = -1
	}
	global := make([]int32, len(nodes))
	for i, v := range nodes {
		if v < 0 || v >= g.n {
			panic("graph: induced subgraph node out of range")
		}
		if local[v] >= 0 {
			panic("graph: induced subgraph node listed twice")
		}
		local[v] = int32(i)
		global[i] = int32(v)
	}
	s := &Subgraph{parent: g, global: global, local: local}
	s.G = Build(len(nodes), func(add func(u, v int, w float64)) {
		// Build calls emit twice; reset so the fill pass leaves one copy.
		s.edgeGlob = s.edgeGlob[:0]
		// Scanning the parent edge list in ID order keeps relative edge
		// IDs and hence adjacency (port) order identical to the parent —
		// the view of the full graph is the identity, and any cluster
		// view inherits the parent's deterministic port numbering.
		for id, e := range g.edges {
			lu, lv := local[e.U], local[e.V]
			if lu < 0 || lv < 0 {
				continue
			}
			add(int(lu), int(lv), e.W)
			s.edgeGlob = append(s.edgeGlob, int32(id))
		}
	})
	for lu := range global {
		gu := int(global[lu])
		for _, h := range g.Neighbors(gu) {
			if local[h.To] < 0 {
				s.boundary = append(s.boundary, BoundaryEdge{EdgeID: h.EdgeID(), Inside: gu, Outside: int(h.To)})
			}
		}
	}
	return s
}

// Parent returns the graph the subgraph was induced from.
func (s *Subgraph) Parent() *Graph { return s.parent }

// Global maps a local node ID to its parent node ID.
func (s *Subgraph) Global(local int) int { return int(s.global[local]) }

// Local maps a parent node ID to its local ID, or -1 if the node is not
// in the cluster.
func (s *Subgraph) Local(parent int) int { return int(s.local[parent]) }

// GlobalEdge maps a local edge ID (an edge of G) to its parent edge ID.
func (s *Subgraph) GlobalEdge(local int) int { return int(s.edgeGlob[local]) }

// Boundary returns the parent edges with exactly one endpoint inside the
// cluster, in local-node order of the inside endpoint. The returned
// slice must not be modified.
func (s *Subgraph) Boundary() []BoundaryEdge { return s.boundary }
