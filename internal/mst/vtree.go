package mst

import (
	"fmt"
)

// Forest maintains the virtual trees T(C) of §4: one rooted tree per
// Borůvka fragment, over the physical nodes of the component. Tree edges
// are virtual (arbitrary node pairs routable by ID); Lemma 4.1's
// invariants — depth O(log² n), per-node in-degree growth O(1) per
// iteration beyond the ≤ d_G(v) merge attachments, and parent knowledge —
// are maintained by the token-merge balancing process implemented in
// balance.
type Forest struct {
	parent []int32 // virtual-tree parent; -1 at roots
	frag   []int32 // fragment identifier (the root node's ID)
	inDeg  []int32 // virtual-tree in-degree (children count), audited
}

// NewForest returns the singleton forest: every node is its own fragment.
func NewForest(n int) *Forest {
	f := &Forest{
		parent: make([]int32, n),
		frag:   make([]int32, n),
		inDeg:  make([]int32, n),
	}
	for v := range f.parent {
		f.parent[v] = -1
		f.frag[v] = int32(v)
	}
	return f
}

// Fragment returns the fragment ID of node v.
func (f *Forest) Fragment(v int32) int32 { return f.frag[v] }

// Parent returns v's virtual-tree parent (-1 at roots).
func (f *Forest) Parent(v int32) int32 { return f.parent[v] }

// InDegree returns v's number of virtual-tree children.
func (f *Forest) InDegree(v int32) int32 { return f.inDeg[v] }

// depthsInto writes every node's virtual-tree depth into depth (one entry
// per node). Each node climbs to its nearest ancestor of known depth — or
// to its root — and the climbed path is labelled on the way back, so
// every tree edge is walked a constant number of times.
func (f *Forest) depthsInto(depth []int32) {
	for i := range depth {
		depth[i] = -1
	}
	for v := range depth {
		top, d := int32(v), int32(0)
		for depth[top] < 0 && f.parent[top] >= 0 {
			top = f.parent[top]
			d++
		}
		if depth[top] > 0 {
			d += depth[top]
		}
		for w := int32(v); depth[w] < 0; w = f.parent[w] {
			depth[w] = d
			d--
			if f.parent[w] < 0 {
				break
			}
		}
	}
}

// Attach merges a tail fragment into a head fragment: the tail's root
// becomes a child of attachment point y (the head-side endpoint of the
// tail's minimum-weight outgoing edge). The caller relabels fragments
// afterwards via Relabel.
func (f *Forest) Attach(tailRoot, y int32) {
	if f.parent[tailRoot] >= 0 {
		panic(fmt.Sprintf("mst: node %d is not a root", tailRoot))
	}
	f.parent[tailRoot] = y
	f.inDeg[y]++
}

// Relabel assigns every node the fragment ID of its tree root. It returns
// the number of distinct fragments (one per root).
func (f *Forest) Relabel() int {
	for v := range f.frag {
		f.frag[v] = -1
	}
	roots := 0
	for v := range f.frag {
		if f.parent[v] < 0 {
			roots++
		}
		// Climb to the nearest labelled ancestor, or to the root, then
		// label the climbed path.
		top := int32(v)
		for f.frag[top] < 0 && f.parent[top] >= 0 {
			top = f.parent[top]
		}
		root := f.frag[top]
		if root < 0 {
			root = top
		}
		for w := int32(v); f.frag[w] < 0; w = f.parent[w] {
			f.frag[w] = root
			if f.parent[w] < 0 {
				break
			}
		}
	}
	return roots
}

// balanceResult reports the token process outcome for auditing.
type balanceResult struct {
	Waves     int // tree levels the token wave traversed
	Reparents int // virtual edges rewired
}

// token is one balancing token: the node it sits at, the node it was
// created at, and the child it last moved up from (-1 while it has not
// moved).
type token struct{ pos, creation, arrived int32 }

// balance runs the Lemma 4.1 token-merge process on the head trees after
// an iteration's attachments: one token per distinct attachment point
// percolates up the (pre-attachment) head tree; wherever two or more
// tokens meet, the creation points of arriving tokens are re-parented
// under the child through which they arrived, and a fresh token continues
// from the merge point. The final merge at the root re-parents the
// surviving creation points likewise, keeping every newly attached
// subtree within O(log n) of the root.
//
// sc.attachPoints are the attachment points of every head at once: tokens
// of different heads live in different trees and never meet, so one wave
// serves all of them, and Waves is the deepest attachment point.
// sc.snapParent and sc.depth must be the parent and depth tables before
// this iteration's attachments; token movement follows the snapshot
// while re-parenting mutates the live table.
func (f *Forest) balance(sc *scratch) balanceResult {
	var res balanceResult
	snapParent, snapDepth := sc.snapParent, sc.depth
	toks := sc.tokens[:0]
	for _, p := range sc.attachPoints {
		if sc.tokensAt[p] == 0 { // one token per distinct point
			sc.tokensAt[p] = 1
			toks = append(toks, token{pos: p, creation: p, arrived: -1})
			res.Waves = max(res.Waves, int(snapDepth[p]))
		}
	}

	// rehang re-parents a token's creation point under the child through
	// which the token arrived, unless it already is that child (or the
	// creation point is the token's position or its tree's root).
	rehang := func(t token) {
		w, u := t.creation, t.arrived
		if u < 0 || w == u || w == t.pos || snapParent[w] < 0 {
			return
		}
		if f.parent[w] != u {
			if old := f.parent[w]; old >= 0 {
				f.inDeg[old]--
			}
			f.parent[w] = u
			f.inDeg[u]++
			res.Reparents++
		}
	}

	for d := int32(res.Waves); d >= 1; d-- {
		// The wave moves the tokens at depth d one level up; tokens
		// created higher wait for it.
		for i := range toks {
			if t := &toks[i]; snapDepth[t.pos] == d {
				sc.tokensAt[t.pos]--
				t.arrived = t.pos
				t.pos = snapParent[t.pos]
				sc.tokensAt[t.pos]++
			}
		}
		// Tokens that met below a root merge: each re-parents its
		// creation point, and one fresh token continues from there.
		for i := range toks {
			if t := &toks[i]; sc.tokensAt[t.pos] > 1 && snapParent[t.pos] >= 0 {
				rehang(*t)
				t.creation = -1 // merged away
			}
		}
		live := toks[:0]
		for _, t := range toks {
			switch {
			case t.creation >= 0:
				live = append(live, t)
			case sc.tokensAt[t.pos] > 1: // first of its meeting
				sc.tokensAt[t.pos] = 1
				live = append(live, token{pos: t.pos, creation: t.pos, arrived: -1})
			}
		}
		toks = live
	}
	// Final merge at the roots.
	for _, t := range toks {
		rehang(t)
		sc.tokensAt[t.pos] = 0
	}
	sc.tokens = toks[:0]
	return res
}

// Validate checks structural invariants: parent pointers are acyclic and
// every non-root reaches its fragment's root.
func (f *Forest) Validate() error {
	n := len(f.parent)
	for v := int32(0); v < int32(n); v++ {
		slow, fast := v, v
		for {
			if f.parent[fast] < 0 {
				break
			}
			fast = f.parent[fast]
			if f.parent[fast] < 0 {
				break
			}
			fast = f.parent[fast]
			slow = f.parent[slow]
			if slow == fast {
				return fmt.Errorf("mst: parent cycle through node %d", v)
			}
		}
		root := v
		for f.parent[root] >= 0 {
			root = f.parent[root]
		}
		if f.frag[v] != f.frag[root] {
			return fmt.Errorf("mst: node %d fragment %d != root fragment %d", v, f.frag[v], f.frag[root])
		}
	}
	return nil
}
