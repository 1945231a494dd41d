package hyperblock

import (
	"fmt"
	"slices"

	"predication/internal/cfg"
	"predication/internal/ir"
	"predication/internal/machine"
)

// Result reports what formation did, so later passes (branch combining,
// promotion, scheduling) know which blocks are hyperblock heads.
type Result struct {
	// Heads maps function index to the block IDs of formed hyperblocks.
	Heads map[int][]int
}

// Form performs hyperblock formation on every function of the program.
// The profile must have been collected on this exact program object.
// A non-nil error means if-conversion hit an inconsistent region and the
// program may be partially rewritten; callers must discard it.
func Form(p *ir.Program, prof *cfg.Profile, params Params) (*Result, error) {
	res := &Result{Heads: map[int][]int{}}
	for fi, f := range p.Funcs {
		heads, err := formFunc(f, prof, params)
		if err != nil {
			return nil, fmt.Errorf("F%d: %w", fi, err)
		}
		if len(heads) > 0 {
			res.Heads[fi] = heads
		}
	}
	return res, nil
}

// region is a candidate single-entry acyclic region for if-conversion.
type region struct {
	seed   int
	blocks map[int]bool // includes seed; loop bodies exclude backedge edges
	isLoop bool
	weight int64
}

// graphCheck, when set, runs after every incremental graph update.  Only
// tests set it, to compare the graph with a whole-function rebuild.
var graphCheck func(*cfg.Graph)

// update brings g up to date after the blocks ids were rewritten,
// created or killed.
func update(g *cfg.Graph, ids ...int) {
	g.Update(ids...)
	if graphCheck != nil {
		graphCheck(g)
	}
}

func formFunc(f *ir.Func, prof *cfg.Profile, params Params) ([]int, error) {
	var heads []int
	tried := map[int]bool{}
	// Every transformation reports the blocks it changed, so one graph,
	// kept current by local updates, serves the whole formation.
	g := cfg.NewGraph(f)
	for round := 0; round < 8; round++ {
		regions := findRegions(f, g, prof, params, tried)
		formed := 0
		touched := map[int]bool{}
		for _, r := range regions {
			// Regions overlapping blocks already transformed this round
			// are retried next round against fresh analyses.
			overlap := false
			for id := range r.blocks {
				if touched[id] {
					overlap = true
					break
				}
			}
			if overlap {
				continue
			}
			tried[r.seed] = true
			ok, err := tryForm(f, g, prof, params, r)
			if err != nil {
				return nil, err
			}
			if ok {
				heads = append(heads, r.seed)
				formed++
				for id := range r.blocks {
					touched[id] = true
				}
			}
		}
		if formed == 0 {
			break
		}
	}
	return heads, nil
}

// findRegions enumerates candidate regions in decreasing weight order:
// innermost loop bodies first, then the acyclic non-loop portion rooted at
// the function entry.
func findRegions(f *ir.Func, g *cfg.Graph, prof *cfg.Profile, params Params, tried map[int]bool) []*region {
	var regions []*region
	loops := g.NaturalLoops()
	inLoop := map[int]bool{}
	for _, l := range loops {
		for id := range l.Blocks {
			inLoop[id] = true
		}
	}
	for _, l := range loops {
		if tried[l.Header] {
			continue
		}
		w := prof.Weight(f.Blocks[l.Header])
		if w < params.MinCount {
			continue
		}
		// Innermost only: the body (minus edges into the header) must be
		// acyclic; topoOrder reports failure for nested loops.
		blocks := map[int]bool{}
		for id := range l.Blocks {
			blocks[id] = true
		}
		if _, ok := topoOrder(f, g, blocks, l.Header); !ok {
			continue
		}
		regions = append(regions, &region{seed: l.Header, blocks: blocks, isLoop: true, weight: w})
	}
	// Acyclic regions: for every sufficiently hot block that is not a loop
	// header, the set of blocks it dominates within the same innermost
	// loop context forms a single-entry acyclic candidate region (diamonds
	// and hammocks nested inside larger loops, or whole straight-line
	// functions rooted at the entry).
	innermost := map[int]int{} // block -> smallest containing loop header (-1 if none)
	for _, b := range f.LiveBlocks(nil) {
		innermost[b.ID] = -1
	}
	for i := len(loops) - 1; i >= 0; i-- { // larger loops first; inner overwrite
		for id := range loops[i].Blocks {
			innermost[id] = loops[i].Header
		}
	}
	headers := map[int]bool{}
	for _, l := range loops {
		headers[l.Header] = true
	}
	// Dominator-tree children let each candidate's dominated set be
	// collected by subtree walk instead of per-pair chain walks.
	idom := g.Dominators()
	children := make([][]int, len(f.Blocks))
	for id, d := range idom {
		if d >= 0 && d != id {
			children[d] = append(children[d], id)
		}
	}
	for _, b := range f.LiveBlocks(nil) {
		seed := b.ID
		if tried[seed] || headers[seed] || !g.Reachable(seed) {
			continue
		}
		w := prof.Weight(b)
		if w < params.MinCount {
			continue
		}
		blocks := map[int]bool{seed: true}
		stack := append([]int(nil), children[seed]...)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if innermost[x] != innermost[seed] {
				continue // different loop context; skip whole subtree anyway
			}
			blocks[x] = true
			stack = append(stack, children[x]...)
		}
		if len(blocks) < 2 {
			continue
		}
		if _, ok := topoOrder(f, g, blocks, seed); ok {
			regions = append(regions, &region{seed: seed, blocks: blocks, weight: w})
		}
	}
	// Sort by weight, descending (insertion sort: few regions).
	for i := 1; i < len(regions); i++ {
		for j := i; j > 0 && regions[j].weight > regions[j-1].weight; j-- {
			regions[j], regions[j-1] = regions[j-1], regions[j]
		}
	}
	return regions
}

// topoOrder topologically sorts the blocks of a region, treating edges into
// the seed (loop back edges) as absent.  It reports failure when the region
// is cyclic.
func topoOrder(f *ir.Func, g *cfg.Graph, blocks map[int]bool, seed int) ([]int, bool) {
	state := map[int]int{} // 0 unvisited, 1 on stack, 2 done
	var order []int
	ok := true
	var visit func(int)
	visit = func(id int) {
		state[id] = 1
		for _, s := range g.Succs[id] {
			if s == seed || !blocks[s] {
				continue
			}
			switch state[s] {
			case 0:
				visit(s)
			case 1:
				ok = false
			}
		}
		state[id] = 2
		order = append(order, id)
	}
	visit(seed)
	if !ok {
		return nil, false
	}
	// Reverse postorder.
	for l, r := 0, len(order)-1; l < r; l, r = l+1, r-1 {
		order[l], order[r] = order[r], order[l]
	}
	return order, true
}

// hasHazard reports whether a block cannot be included in a hyperblock:
// subroutine calls, returns, halts, and malformed blocks with internal
// branches (§3.1 excludes hazardous instructions).
func hasHazard(b *ir.Block) bool {
	for i, in := range b.Instrs {
		switch in.Op {
		case ir.JSR, ir.Ret, ir.Halt:
			return true
		case ir.PredDef, ir.PredClear, ir.PredSet, ir.CMov, ir.CMovCom:
			return true // already-predicated code is not re-converted
		}
		if in.Op.IsBranch() && i != len(b.Instrs)-1 {
			return true
		}
		if in.Guard != ir.PNone {
			return true
		}
	}
	return false
}

// tryForm selects blocks from the region, removes side entrances by tail
// duplication, and if-converts the selection into the seed block.  It
// reports whether a hyperblock was formed; a non-nil error is an
// if-conversion precondition failure that invalidates the function.  g
// must reflect f's current block structure, and is kept current through
// every rewrite (tail duplication can rewrite blocks even when no
// hyperblock results).
func tryForm(f *ir.Func, g *cfg.Graph, prof *cfg.Profile, params Params, r *region) (bool, error) {
	order, ok := topoOrder(f, g, r.blocks, r.seed)
	if !ok || len(order) < 2 {
		return false, nil
	}
	entryW := prof.Weight(f.Blocks[r.seed])
	if entryW < params.MinCount || hasHazard(f.Blocks[r.seed]) {
		return false, nil
	}

	// Block selection (§3.1): walk the region in topological order and
	// include blocks that are likely enough, hazard free, and within the
	// resource budget.
	sel := map[int]bool{r.seed: true}
	total := len(f.Blocks[r.seed].Instrs)
	waste := 0.0
	for _, id := range order {
		if id == r.seed {
			continue
		}
		b := f.Blocks[id]
		hasSelPred := false
		for _, p := range g.Preds[id] {
			if sel[p] {
				hasSelPred = true
			}
		}
		if !hasSelPred {
			continue
		}
		w := float64(prof.Weight(b))
		// Size tiers count the instructions that survive if-conversion:
		// a trailing unconditional jump becomes fallthrough or a define.
		size := len(b.Instrs)
		if tm := b.Terminator(); tm != nil && tm.Op == ir.Jump {
			size--
		}
		ratio := params.IncludeRatio
		switch {
		case size <= params.SmallBlockInstrs:
			ratio = params.SmallBlockRatio
		case size <= params.MediumBlockInstrs:
			ratio = params.MediumBlockRatio
		}
		if w < ratio*float64(entryW) {
			continue
		}
		if hasHazard(b) {
			continue
		}
		if blockHeight(b) > params.MaxBlockHeight && w < params.HeightProb*float64(entryW) {
			continue
		}
		if total+len(b.Instrs) > params.MaxInstrs {
			continue
		}
		// Over-saturation heuristic: nullified instructions still consume
		// fetch and issue slots, so cap the expected waste per execution.
		bw := (1 - w/float64(entryW)) * float64(len(b.Instrs))
		if waste+bw > params.MaxWaste {
			continue
		}
		sel[id] = true
		total += len(b.Instrs)
		waste += bw
	}
	// Prune branch-only blocks none of whose successors were selected:
	// converting a dispatch chain buys nothing when the code it dispatches
	// to stays outside the hyperblock (an N-way switch over excluded
	// handlers), and the resulting predicate chains only add height.  The
	// prune iterates bottom-up until stable, unwinding whole dispatch
	// trees while keeping classification chains that feed selected work.
	for changed := true; changed; {
		changed = false
		for id := range sel {
			if id == r.seed || !branchOnly(f.Blocks[id]) {
				continue
			}
			keep := false
			for _, s := range g.Succs[id] {
				if s != r.seed && sel[s] {
					keep = true
				}
			}
			if !keep {
				delete(sel, id)
				changed = true
			}
		}
	}
	closeSelection(g, sel, r.seed)
	if len(sel) < 2 {
		return false, nil
	}

	// Side-entrance removal by tail duplication (bounded), dropping blocks
	// when the duplication budget is exceeded.  Only a successful
	// duplication changes the block structure, and it names the blocks
	// the graph must update.
	for iter := 0; iter < 32; iter++ {
		entered := sideEntered(g, sel, r.seed)
		if entered < 0 {
			break
		}
		if changed, ok := tailDuplicate(f, g, sel, r.seed, entered, params.MaxDupInstrs); ok {
			update(g, changed...)
		} else {
			delete(sel, entered)
			closeSelection(g, sel, r.seed)
		}
		if len(sel) < 2 {
			return false, nil
		}
	}

	if sideEntered(g, sel, r.seed) >= 0 {
		return false, nil
	}
	order, ok = topoOrder(f, g, sel, r.seed)
	if !ok {
		return false, nil
	}
	if err := ifConvert(f, g, sel, r.seed, order); err != nil {
		return false, err
	}
	// The seed now holds the whole selection; the other blocks are dead.
	update(g, order...)
	return true, nil
}

// blockHeight estimates the block's internal dependence height in cycles:
// the longest register flow chain using machine latencies.
func blockHeight(b *ir.Block) int {
	ready := map[ir.Reg]int{}
	height := 0
	var srcBuf [4]ir.Reg
	for _, in := range b.Instrs {
		start := 0
		for _, s := range in.SrcRegs(srcBuf[:0]) {
			if r := ready[s]; r > start {
				start = r
			}
		}
		end := start + machine.Latency(in.Op)
		if d := in.DefReg(); d != ir.RNone {
			ready[d] = end
		}
		if end > height {
			height = end
		}
	}
	return height
}

// branchOnly reports whether the block consists solely of control
// transfers (a pure dispatch node).
func branchOnly(b *ir.Block) bool {
	for _, in := range b.Instrs {
		if !in.Op.IsBranch() {
			return false
		}
	}
	return len(b.Instrs) > 0
}

// closeSelection removes selected blocks no longer reachable from the seed
// through selected blocks.
func closeSelection(g *cfg.Graph, sel map[int]bool, seed int) {
	reach := map[int]bool{seed: true}
	stack := []int{seed}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.Succs[id] {
			if s != seed && sel[s] && !reach[s] {
				reach[s] = true
				stack = append(stack, s)
			}
		}
	}
	for id := range sel {
		if !reach[id] {
			delete(sel, id)
		}
	}
}

// sideEntered returns the lowest-ID selected non-seed block with a
// predecessor outside the selection, or -1.  Taking the lowest ID, not
// whichever the map yields first, keeps formation deterministic.
func sideEntered(g *cfg.Graph, sel map[int]bool, seed int) int {
	best := -1
	for id := range sel {
		if id == seed || (best >= 0 && id > best) {
			continue
		}
		for _, p := range g.Preds[id] {
			if !sel[p] {
				best = id
				break
			}
		}
	}
	return best
}

// tailDuplicate clones the selected subgraph reachable from block `from`
// and redirects every edge from an unselected block into that subgraph to
// the clones.  It returns the clones and the redirected predecessors (the
// blocks whose edges changed), or false (no change) when the clone would
// exceed the instruction budget.  Clones are allocated in ascending order
// of the blocks they copy, so their IDs do not depend on map order.
func tailDuplicate(f *ir.Func, g *cfg.Graph, sel map[int]bool, seed, from, budget int) ([]int, bool) {
	// D = selected blocks reachable from `from` without passing the seed.
	dup := map[int]bool{}
	stack := []int{from}
	cost := 0
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if dup[id] {
			continue
		}
		dup[id] = true
		cost += len(f.Blocks[id].Instrs)
		for _, s := range g.Succs[id] {
			if s != seed && sel[s] && !dup[s] {
				stack = append(stack, s)
			}
		}
	}
	if cost > budget {
		return nil, false
	}
	ids := make([]int, 0, len(dup))
	for id := range dup {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	clone := map[int]int{}
	changed := make([]int, 0, 2*len(ids))
	for _, id := range ids {
		ob := f.Blocks[id]
		nb := f.NewBlock()
		nb.Name = ob.Name + ".hdup"
		nb.Fall = ob.Fall
		for _, in := range ob.Instrs {
			nb.Instrs = append(nb.Instrs, in.Clone())
		}
		clone[id] = nb.ID
		changed = append(changed, nb.ID)
	}
	for _, id := range ids {
		nb := f.Blocks[clone[id]]
		for _, in := range nb.Instrs {
			switch in.Op {
			case ir.Jump, ir.BrEQ, ir.BrNE, ir.BrLT, ir.BrLE, ir.BrGT, ir.BrGE:
				if c, ok := clone[in.Target]; ok {
					in.Target = c
				}
			}
		}
		if c, ok := clone[nb.Fall]; ok {
			nb.Fall = c
		}
	}
	// Redirect every unselected predecessor edge into the duplicated set.
	// The graph is not updated until the caller gets the changed blocks,
	// so g.Preds still lists original blocks only.
	for _, id := range ids {
		for _, pid := range g.Preds[id] {
			if sel[pid] {
				continue
			}
			pb := f.Blocks[pid]
			for _, in := range pb.Instrs {
				switch in.Op {
				case ir.Jump, ir.BrEQ, ir.BrNE, ir.BrLT, ir.BrLE, ir.BrGT, ir.BrGE:
					if in.Target == id {
						in.Target = clone[id]
					}
				}
			}
			if pb.Fall == id {
				pb.Fall = clone[id]
			}
			changed = append(changed, pid)
		}
	}
	return changed, true
}
