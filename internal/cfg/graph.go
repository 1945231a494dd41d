// Package cfg provides control-flow-graph analyses over the IR: successor
// and predecessor maps, reverse postorder, dominators, natural loops,
// liveness, and the dynamic edge profile collected by the emulator.
package cfg

import (
	"fmt"
	"slices"

	"predication/internal/ir"
)

// Graph is the control-flow graph of one function, computed on demand from
// the block structure.  After a pass adds or removes edges, bring it up to
// date with Update (the blocks the pass touched), Rebuild, or a fresh
// NewGraph.  A Graph is not safe for concurrent use, not even for reads:
// the first query after a change recomputes the depth-first order.
type Graph struct {
	F     *ir.Func
	Succs [][]int // block ID -> successor block IDs
	Preds [][]int // block ID -> predecessor block IDs, ascending

	// The depth-first order is derived from Succs on first use after a
	// build or an Update; staleOrder marks it out of date.
	rpo        []int // reverse postorder over reachable live blocks
	rpoIx      []int // block ID -> position in rpo (-1 if unreachable)
	staleOrder bool

	// Scratch storage retained across Rebuild, Update and order
	// recomputation, so repeated maintenance reuses its buffers.
	sbuf    []int
	pbuf    []int
	ubuf    []int
	counts  []int
	visited []bool
	post    []int
	stack   []dfsFrame
}

type dfsFrame struct{ id, next int }

// NewGraph builds the CFG for f.
func NewGraph(f *ir.Func) *Graph {
	g := &Graph{F: f}
	g.build()
	return g
}

// Rebuild recomputes the graph for the function after a structural change,
// reusing the graph's storage.  All previously returned successor and
// predecessor slices are invalidated.
func (g *Graph) Rebuild() { g.build() }

// Update brings the graph up to date after a transformation rewrote,
// created (appended to F.Blocks) or killed the blocks with the given IDs,
// and touched no other block's control flow.  Only those blocks' successor
// lists are re-derived; their successors' predecessor lists are patched in
// place, kept in ascending block ID like build's.  Afterwards the edge
// lists equal those of a fresh NewGraph, and the depth-first order is
// recomputed from them when next asked for.  Successor and predecessor
// slices previously returned for the affected blocks are invalidated.
func (g *Graph) Update(ids ...int) {
	for n := len(g.F.Blocks); len(g.Succs) < n; {
		g.Succs = append(g.Succs, nil)
		g.Preds = append(g.Preds, nil)
		g.staleOrder = true // the order's per-block index must grow too
	}
	for _, id := range ids {
		succs := g.ubuf[:0]
		if b := g.F.Blocks[id]; b != nil && !b.Dead {
			succs = b.Succs(succs)
		}
		g.ubuf = succs
		old := g.Succs[id]
		if slices.Equal(old, succs) {
			continue
		}
		for _, s := range old {
			if !slices.Contains(succs, s) {
				if i, ok := slices.BinarySearch(g.Preds[s], id); ok {
					g.Preds[s] = slices.Delete(g.Preds[s], i, i+1)
				}
			}
		}
		for _, s := range succs {
			if !slices.Contains(old, s) {
				if i, ok := slices.BinarySearch(g.Preds[s], id); !ok {
					g.Preds[s] = slices.Insert(g.Preds[s], i, id)
				}
			}
		}
		// Every list's capacity ends at its own window of the shared
		// backing arrays, so growing one in place never clobbers another.
		if len(succs) <= cap(old) {
			g.Succs[id] = append(old[:0], succs...)
		} else {
			g.Succs[id] = slices.Clone(succs)
		}
		g.staleOrder = true
	}
}

// Verify compares the graph with a fresh NewGraph of its function and
// reports the first difference: a successor or predecessor list, a
// block's reachability, or the reverse postorder.  Tests use it to pin
// Update to a whole-function rebuild.
func (g *Graph) Verify() error {
	want := NewGraph(g.F)
	n := len(g.F.Blocks)
	if len(g.Succs) != n || len(g.Preds) != n {
		return fmt.Errorf("cfg: %s: graph covers %d blocks, function has %d", g.F.Name, len(g.Succs), n)
	}
	for id := 0; id < n; id++ {
		switch {
		case !slices.Equal(g.Succs[id], want.Succs[id]):
			return fmt.Errorf("cfg: %s: B%d successors %v, rebuild has %v", g.F.Name, id, g.Succs[id], want.Succs[id])
		case !slices.Equal(g.Preds[id], want.Preds[id]):
			return fmt.Errorf("cfg: %s: B%d predecessors %v, rebuild has %v", g.F.Name, id, g.Preds[id], want.Preds[id])
		case g.Reachable(id) != want.Reachable(id):
			return fmt.Errorf("cfg: %s: B%d reachable=%v, rebuild has %v", g.F.Name, id, g.Reachable(id), want.Reachable(id))
		}
	}
	if !slices.Equal(g.RPO(), want.RPO()) {
		return fmt.Errorf("cfg: %s: reverse postorder %v, rebuild has %v", g.F.Name, g.RPO(), want.RPO())
	}
	return nil
}

// grow returns s resized to n elements, all zero, reusing its backing array
// when possible.  Fresh allocations carry headroom: formation passes add
// blocks between rebuilds, and reallocating every O(n) array on each rebuild
// is what this arena exists to avoid.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/2+16)
	}
	s = s[:n]
	clear(s)
	return s
}

// build computes the graph.  The successor and predecessor lists are carved
// out of two shared backing arrays (compressed-row layout) instead of one
// slice per block, and the postorder walk uses an explicit stack.
func (g *Graph) build() {
	f := g.F
	n := len(f.Blocks)
	g.Succs = grow(g.Succs, n)
	g.Preds = grow(g.Preds, n)

	// Successor lists: append into one shared backing array and carve
	// per-block windows out of it.  When the backing grows, windows carved
	// earlier keep the retired array alive, which is harmless.
	sbuf := g.sbuf[:0]
	if cap(sbuf) < 2*n+8 {
		sbuf = make([]int, 0, 3*n+16)
	}
	for _, b := range f.Blocks {
		if b == nil || b.Dead {
			continue
		}
		start := len(sbuf)
		sbuf = b.Succs(sbuf)
		g.Succs[b.ID] = sbuf[start:len(sbuf):len(sbuf)]
	}
	g.sbuf = sbuf

	// Predecessor lists, same layout: count, carve, fill.
	g.counts = grow(g.counts, n)
	total := 0
	for _, succs := range g.Succs {
		total += len(succs)
		for _, s := range succs {
			g.counts[s]++
		}
	}
	pbuf := g.pbuf[:0]
	if cap(pbuf) < total {
		pbuf = make([]int, 0, total+total/2+16)
	}
	for id, c := range g.counts {
		if c == 0 {
			continue
		}
		g.Preds[id] = pbuf[len(pbuf) : len(pbuf) : len(pbuf)+c]
		pbuf = pbuf[:len(pbuf)+c]
	}
	g.pbuf = pbuf
	for id, succs := range g.Succs {
		for _, s := range succs {
			g.Preds[s] = append(g.Preds[s], id)
		}
	}

	g.staleOrder = true
}

// order recomputes the depth-first order if an edge changed since it was
// last derived.
func (g *Graph) order() {
	if !g.staleOrder {
		return
	}
	g.staleOrder = false
	f := g.F
	n := len(f.Blocks)
	// Depth-first postorder from the entry, reversed.  The explicit stack
	// visits successors in list order, exactly like the recursive walk.
	g.visited = grow(g.visited, n)
	post := g.post[:0]
	if cap(post) < n {
		post = make([]int, 0, n+n/2+16)
	}
	stack := g.stack[:0]
	stack = append(stack, dfsFrame{f.Entry, 0})
	g.visited[f.Entry] = true
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		if fr.next < len(g.Succs[fr.id]) {
			s := g.Succs[fr.id][fr.next]
			fr.next++
			if !g.visited[s] {
				g.visited[s] = true
				stack = append(stack, dfsFrame{s, 0})
			}
			continue
		}
		post = append(post, fr.id)
		stack = stack[:len(stack)-1]
	}
	g.post = post
	g.stack = stack[:0]
	g.rpo = g.rpo[:0]
	if cap(g.rpo) < len(post) {
		g.rpo = make([]int, 0, len(post)+len(post)/2+16)
	}
	for i := len(post) - 1; i >= 0; i-- {
		g.rpo = append(g.rpo, post[i])
	}
	g.rpoIx = grow(g.rpoIx, n)
	for i := range g.rpoIx {
		g.rpoIx[i] = -1
	}
	for i, id := range g.rpo {
		g.rpoIx[id] = i
	}
}

// RPO returns the reverse postorder over the reachable live blocks.  The
// slice is valid until the next Update or Rebuild.
func (g *Graph) RPO() []int {
	g.order()
	return g.rpo
}

// Reachable reports whether the block is reachable from the entry.
func (g *Graph) Reachable(id int) bool {
	g.order()
	return g.rpoIx[id] >= 0
}

// Dominators computes the immediate-dominator array using the
// Cooper/Harvey/Kennedy iterative algorithm.  idom[entry] == entry;
// unreachable blocks have idom -1.
func (g *Graph) Dominators() []int {
	g.order()
	n := len(g.F.Blocks)
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	idom[g.F.Entry] = g.F.Entry
	intersect := func(a, b int) int {
		for a != b {
			for g.rpoIx[a] > g.rpoIx[b] {
				a = idom[a]
			}
			for g.rpoIx[b] > g.rpoIx[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, id := range g.rpo {
			if id == g.F.Entry {
				continue
			}
			newIdom := -1
			for _, p := range g.Preds[id] {
				if idom[p] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != -1 && idom[id] != newIdom {
				idom[id] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// Dominates reports whether a dominates b under the given idom array.
func Dominates(idom []int, a, b int) bool {
	for {
		if b == a {
			return true
		}
		if idom[b] == b || idom[b] == -1 {
			return false
		}
		b = idom[b]
	}
}

// Loop is a natural loop: the header plus the set of body blocks (including
// the header).
type Loop struct {
	Header int
	Blocks map[int]bool
	// Backedges lists the source blocks of the loop's back edges.
	Backedges []int
}

// NaturalLoops finds all natural loops (back edges whose target dominates
// the source), merging loops that share a header.  Inner loops come first in
// the returned slice (ordered by ascending body size).
func (g *Graph) NaturalLoops() []*Loop {
	idom := g.Dominators()
	byHeader := map[int]*Loop{}
	for _, b := range g.rpo {
		for _, s := range g.Succs[b] {
			if !Dominates(idom, s, b) {
				continue
			}
			l := byHeader[s]
			if l == nil {
				l = &Loop{Header: s, Blocks: map[int]bool{s: true}}
				byHeader[s] = l
			}
			l.Backedges = append(l.Backedges, b)
			// Collect the natural loop body: blocks reaching the back edge
			// source without passing through the header.
			stack := []int{b}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if l.Blocks[x] {
					continue
				}
				l.Blocks[x] = true
				for _, p := range g.Preds[x] {
					if g.Reachable(p) {
						stack = append(stack, p)
					}
				}
			}
		}
	}
	loops := make([]*Loop, 0, len(byHeader))
	for _, l := range byHeader {
		loops = append(loops, l)
	}
	// Ascending body size: inner loops first.
	for i := 1; i < len(loops); i++ {
		for j := i; j > 0 && len(loops[j].Blocks) < len(loops[j-1].Blocks); j-- {
			loops[j], loops[j-1] = loops[j-1], loops[j]
		}
	}
	return loops
}
