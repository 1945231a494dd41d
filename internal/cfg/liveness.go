package cfg

import "predication/internal/ir"

// BitSet is a dense bit set over register numbers.
type BitSet []uint64

// NewBitSet creates a bit set able to hold values in [0, n).
func NewBitSet(n int) BitSet { return make(BitSet, (n+63)/64) }

// Set adds i to the set.
func (s BitSet) Set(i int32) { s[i/64] |= 1 << (uint(i) % 64) }

// Clear removes i from the set.
func (s BitSet) Clear(i int32) { s[i/64] &^= 1 << (uint(i) % 64) }

// Has reports whether i is in the set.
func (s BitSet) Has(i int32) bool { return s[i/64]&(1<<(uint(i)%64)) != 0 }

// OrWith unions other into s, reporting whether s changed.
func (s BitSet) OrWith(other BitSet) bool {
	changed := false
	for i, w := range other {
		if s[i]|w != s[i] {
			s[i] |= w
			changed = true
		}
	}
	return changed
}

// Copy duplicates the set.
func (s BitSet) Copy() BitSet {
	c := make(BitSet, len(s))
	copy(c, s)
	return c
}

// Liveness holds per-block live-in/live-out sets for integer/FP registers
// and for predicate registers.
//
// Predicated definitions do not kill: an instruction guarded by a predicate
// may not execute, so the prior value of its destination can flow through.
// CMov and CMovCom likewise read their destination (conditional write).
type Liveness struct {
	G *Graph
	// RegIn/RegOut are indexed by block ID.
	RegIn, RegOut   []BitSet
	PredIn, PredOut []BitSet
}

// ComputeLiveness runs iterative backward liveness over the function.
//
// All 4n per-block sets plus the iteration scratch sets are carved out of a
// single backing array: the pass runs after every mutating transformation,
// so per-set allocations would dominate its cost.
func ComputeLiveness(g *Graph) *Liveness {
	f := g.F
	n := len(f.Blocks)
	rw := (int(f.NextReg) + 63) / 64
	pw := (int(f.NextPReg) + 63) / 64
	live := 0
	for _, b := range f.Blocks {
		if b != nil && !b.Dead {
			live++
		}
	}
	backing := make([]uint64, (2*live+2)*(rw+pw))
	carve := func(w int) BitSet {
		s := BitSet(backing[:w:w])
		backing = backing[w:]
		return s
	}
	// Dead blocks keep nil sets; formation can leave many of them behind,
	// and sizing the arrays to the live count keeps this pass cheap on
	// functions late in the pipeline.  Consumers (backwardStep, DCE) already
	// treat a nil set as empty.
	lv := &Liveness{G: g,
		RegIn: make([]BitSet, n), RegOut: make([]BitSet, n),
		PredIn: make([]BitSet, n), PredOut: make([]BitSet, n)}
	for _, b := range f.Blocks {
		if b == nil || b.Dead {
			continue
		}
		lv.RegIn[b.ID] = carve(rw)
		lv.RegOut[b.ID] = carve(rw)
		lv.PredIn[b.ID] = carve(pw)
		lv.PredOut[b.ID] = carve(pw)
	}
	out, in := carve(rw), carve(rw)
	pout, pin := carve(pw), carve(pw)
	rpo := g.RPO()
	for changed := true; changed; {
		changed = false
		// Iterate blocks in reverse RPO for fast convergence.
		for i := len(rpo) - 1; i >= 0; i-- {
			id := rpo[i]
			b := f.Blocks[id]
			if b == nil || b.Dead {
				continue // reachable only via a stray edge; no sets
			}
			clear(out)
			clear(pout)
			for _, s := range g.Succs[id] {
				out.OrWith(lv.RegIn[s])
				pout.OrWith(lv.PredIn[s])
			}
			if lv.RegOut[id].OrWith(out) {
				changed = true
			}
			if lv.PredOut[id].OrWith(pout) {
				changed = true
			}
			copy(in, lv.RegOut[id])
			copy(pin, lv.PredOut[id])
			lv.backwardStep(b.Instrs, in, pin)
			if lv.RegIn[id].OrWith(in) {
				changed = true
			}
			if lv.PredIn[id].OrWith(pin) {
				changed = true
			}
		}
	}
	return lv
}

// backwardStep updates live sets walking the instruction list backwards.
// Superblocks and hyperblocks contain mid-block exit branches: at each
// branch the target block's live-ins become live, since control may leave
// there (using the current, monotonically growing approximations keeps the
// fixpoint iteration correct).
func (lv *Liveness) backwardStep(instrs []*ir.Instr, regs BitSet, preds BitSet) {
	var srcBuf [4]ir.Reg
	var pBuf [2]ir.PReg
	for i := len(instrs) - 1; i >= 0; i-- {
		in := instrs[i]
		switch in.Op {
		case ir.Jump, ir.BrEQ, ir.BrNE, ir.BrLT, ir.BrLE, ir.BrGT, ir.BrGE:
			if in.Target >= 0 && in.Target < len(lv.RegIn) && lv.RegIn[in.Target] != nil {
				regs.OrWith(lv.RegIn[in.Target])
				preds.OrWith(lv.PredIn[in.Target])
			}
		}
		if d := in.DefReg(); d != ir.RNone {
			// A guarded or conditional definition may not execute, so it
			// does not kill the incoming value.
			if in.Guard == ir.PNone && !in.ConditionalDef() {
				regs.Clear(int32(d))
			}
		}
		if in.Op == ir.PredDef {
			for _, p := range in.PredDefs(pBuf[:0]) {
				// Only unconditional-type destinations of unguarded defines
				// always write; everything else is a conditional update.
				_ = p
			}
			if in.Guard == ir.PNone {
				for _, pd := range []ir.PredDest{in.P1, in.P2} {
					if pd.Type == ir.PredU || pd.Type == ir.PredUBar {
						preds.Clear(int32(pd.P))
					}
				}
			}
			// OR/AND-type destinations read the prior value semantically.
			for _, pd := range []ir.PredDest{in.P1, in.P2} {
				if pd.Type != ir.PredNone && pd.Type != ir.PredU && pd.Type != ir.PredUBar {
					preds.Set(int32(pd.P))
				}
			}
		}
		if in.Op == ir.PredClear || in.Op == ir.PredSet {
			if in.Guard == ir.PNone {
				for w := range preds {
					preds[w] = 0
				}
			}
		}
		for _, s := range in.SrcRegs(srcBuf[:0]) {
			regs.Set(int32(s))
		}
		if in.Guard != ir.PNone {
			preds.Set(int32(in.Guard))
		}
	}
}

// LiveAt returns the registers live immediately before instruction index
// idx of block id (walking backwards from the block's live-out).
func (lv *Liveness) LiveAt(id, idx int) BitSet {
	b := lv.G.F.Blocks[id]
	regs := lv.RegOut[id].Copy()
	preds := lv.PredOut[id].Copy()
	if idx < len(b.Instrs) {
		lv.backwardStep(b.Instrs[idx:], regs, preds)
	}
	return regs
}
