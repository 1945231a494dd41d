package cfg

import (
	"testing"
	"testing/quick"

	"predication/internal/ir"
)

// diamond builds:  entry -> {then, else} -> join -> exit(halt)
func diamond() (*ir.Func, [5]int) {
	f := ir.NewFunc("t")
	r := f.NewReg()
	entry := f.EntryBlock()
	then := f.NewBlock()
	els := f.NewBlock()
	join := f.NewBlock()
	exit := f.NewBlock()
	entry.Append(ir.NewBranch(ir.EQ, ir.R(r), ir.Imm(0), els.ID))
	entry.Fall = then.ID
	then.Append(ir.NewInstr(ir.Add, r, ir.R(r), ir.Imm(1)))
	then.Append(&ir.Instr{Op: ir.Jump, Target: join.ID})
	els.Append(ir.NewInstr(ir.Sub, r, ir.R(r), ir.Imm(1)))
	els.Fall = join.ID
	join.Fall = exit.ID
	exit.Append(&ir.Instr{Op: ir.Halt})
	return f, [5]int{entry.ID, then.ID, els.ID, join.ID, exit.ID}
}

func TestGraphStructure(t *testing.T) {
	f, ids := diamond()
	g := NewGraph(f)
	entry, then, els, join, exit := ids[0], ids[1], ids[2], ids[3], ids[4]
	if len(g.Succs[entry]) != 2 {
		t.Fatalf("entry succs: %v", g.Succs[entry])
	}
	if len(g.Preds[join]) != 2 {
		t.Fatalf("join preds: %v", g.Preds[join])
	}
	if len(g.Succs[exit]) != 0 {
		t.Fatalf("exit succs: %v", g.Succs[exit])
	}
	for _, id := range ids {
		if !g.Reachable(id) {
			t.Errorf("B%d unreachable", id)
		}
	}
	if g.RPO()[0] != entry {
		t.Errorf("RPO must start at entry: %v", g.RPO())
	}
	// then and els precede join in RPO.
	pos := map[int]int{}
	for i, id := range g.RPO() {
		pos[id] = i
	}
	if pos[then] > pos[join] || pos[els] > pos[join] {
		t.Errorf("RPO order wrong: %v", g.RPO())
	}
}

func TestDominators(t *testing.T) {
	f, ids := diamond()
	g := NewGraph(f)
	idom := g.Dominators()
	entry, then, els, join, exit := ids[0], ids[1], ids[2], ids[3], ids[4]
	if idom[then] != entry || idom[els] != entry {
		t.Error("branch sides dominated by entry")
	}
	if idom[join] != entry {
		t.Errorf("join idom = %d, want entry (neither side dominates)", idom[join])
	}
	if idom[exit] != join {
		t.Errorf("exit idom = %d, want join", idom[exit])
	}
	if !Dominates(idom, entry, exit) || Dominates(idom, then, join) {
		t.Error("Dominates relation wrong")
	}
}

func TestNaturalLoops(t *testing.T) {
	f := ir.NewFunc("t")
	r := f.NewReg()
	entry := f.EntryBlock()
	hdr := f.NewBlock()
	body := f.NewBlock()
	exit := f.NewBlock()
	entry.Fall = hdr.ID
	hdr.Append(ir.NewBranch(ir.GE, ir.R(r), ir.Imm(10), exit.ID))
	hdr.Fall = body.ID
	body.Append(ir.NewInstr(ir.Add, r, ir.R(r), ir.Imm(1)))
	body.Append(&ir.Instr{Op: ir.Jump, Target: hdr.ID})
	exit.Append(&ir.Instr{Op: ir.Halt})

	g := NewGraph(f)
	loops := g.NaturalLoops()
	if len(loops) != 1 {
		t.Fatalf("found %d loops, want 1", len(loops))
	}
	l := loops[0]
	if l.Header != hdr.ID {
		t.Errorf("header %d, want %d", l.Header, hdr.ID)
	}
	if !l.Blocks[hdr.ID] || !l.Blocks[body.ID] || l.Blocks[exit.ID] || l.Blocks[entry.ID] {
		t.Errorf("loop body %v", l.Blocks)
	}
	if len(l.Backedges) != 1 || l.Backedges[0] != body.ID {
		t.Errorf("backedges %v", l.Backedges)
	}
}

func TestLivenessBasics(t *testing.T) {
	f, ids := diamond()
	g := NewGraph(f)
	lv := ComputeLiveness(g)
	// r (register 1) is read by the entry branch: live-in at entry.
	if !lv.RegIn[ids[0]].Has(1) {
		t.Error("r must be live-in at entry")
	}
	// After the halt nothing is live.
	if lv.RegOut[ids[4]].Has(1) {
		t.Error("nothing is live out of the exit block")
	}
}

// TestLivenessGuardedDefsDoNotKill: a predicated definition must not kill
// the incoming value.
func TestLivenessGuardedDefsDoNotKill(t *testing.T) {
	f := ir.NewFunc("t")
	r := f.NewReg()
	p := f.NewPReg()
	entry := f.EntryBlock()
	next := f.NewBlock()
	// entry: r defined under a guard, then used in next.
	guarded := ir.NewInstr(ir.Mov, r, ir.Imm(5))
	guarded.Guard = p
	entry.Append(guarded)
	entry.Fall = next.ID
	next.Append(ir.NewInstr(ir.Add, r, ir.R(r), ir.Imm(1)))
	next.Append(&ir.Instr{Op: ir.Halt})
	g := NewGraph(f)
	lv := ComputeLiveness(g)
	if !lv.RegIn[entry.ID].Has(int32(r)) {
		t.Error("guarded def must not kill: r live-in at entry")
	}
	// An unguarded def does kill.
	guarded.Guard = ir.PNone
	lv = ComputeLiveness(NewGraph(f))
	if lv.RegIn[entry.ID].Has(int32(r)) {
		t.Error("unguarded def kills: r not live-in")
	}
}

// TestLivenessMidBlockBranch: a register killed later in the block is still
// live before an earlier exit branch whose target reads it (the bug found
// by the pipeline fuzzer).
func TestLivenessMidBlockBranch(t *testing.T) {
	f := ir.NewFunc("t")
	r := f.NewReg()
	entry := f.EntryBlock()
	target := f.NewBlock()
	tail := f.NewBlock()
	entry.Append(ir.NewBranch(ir.EQ, ir.R(f.NewReg()), ir.Imm(0), target.ID))
	entry.Append(ir.NewInstr(ir.Mov, r, ir.Imm(7))) // kills r after the branch
	entry.Fall = tail.ID
	target.Append(ir.NewInstr(ir.Add, r, ir.R(r), ir.Imm(1))) // reads r
	target.Fall = tail.ID
	tail.Append(&ir.Instr{Op: ir.Halt})
	g := NewGraph(f)
	lv := ComputeLiveness(g)
	if !lv.RegIn[entry.ID].Has(int32(r)) {
		t.Error("r is live into the entry block through the mid-block branch")
	}
}

// TestBitSetModel checks BitSet against a map-based model.
func TestBitSetModel(t *testing.T) {
	f := func(ops []uint16) bool {
		s := NewBitSet(512)
		m := map[int32]bool{}
		for _, op := range ops {
			v := int32(op % 512)
			switch (op / 512) % 3 {
			case 0:
				s.Set(v)
				m[v] = true
			case 1:
				s.Clear(v)
				delete(m, v)
			case 2:
				if s.Has(v) != m[v] {
					return false
				}
			}
		}
		for v := int32(0); v < 512; v++ {
			if s.Has(v) != m[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProfileQueries(t *testing.T) {
	p := NewProfile()
	in := &ir.Instr{Op: ir.BrEQ}
	p.Taken[in] = 30
	p.NotTaken[in] = 70
	prob, n := p.TakenProb(in)
	if n != 100 || prob != 0.3 {
		t.Errorf("TakenProb = %v, %v", prob, n)
	}
	unknown := &ir.Instr{Op: ir.BrNE}
	if prob, n := p.TakenProb(unknown); prob != 0 || n != 0 {
		t.Errorf("unknown branch: %v, %v", prob, n)
	}
	b := &ir.Block{ID: 1}
	p.BlockCount[b] = 42
	if p.Weight(b) != 42 {
		t.Error("Weight")
	}
	p.FallExit[b] = 9
	if p.EdgeWeight(b, nil) != 9 || p.EdgeWeight(b, in) != 30 {
		t.Error("EdgeWeight")
	}
}
