package cfg

import (
	"math/rand"
	"testing"

	"predication/internal/ir"
)

// randomBody gives block b a random shape over n candidate targets: up to
// two predicated-style exit branches, an optional unconditional terminator
// (jump or halt), and a random fallthrough.
func randomBody(rng *rand.Rand, f *ir.Func, b *ir.Block, n int) {
	r := f.NewReg()
	b.Instrs = b.Instrs[:0]
	b.Append(ir.NewInstr(ir.Add, r, ir.R(r), ir.Imm(1)))
	for k := rng.Intn(3); k > 0; k-- {
		b.Append(ir.NewBranch(ir.EQ, ir.R(r), ir.Imm(0), rng.Intn(n)))
	}
	switch rng.Intn(5) {
	case 0:
		b.Append(&ir.Instr{Op: ir.Jump, Target: rng.Intn(n)})
	case 1:
		b.Append(&ir.Instr{Op: ir.Halt})
	}
	b.Fall = rng.Intn(n+1) - 1
}

// liveNonEntry picks a random live block other than the entry, or -1.
func liveNonEntry(rng *rand.Rand, f *ir.Func) int {
	for tries := 0; tries < 8; tries++ {
		id := rng.Intn(len(f.Blocks))
		if id != f.Entry && !f.Blocks[id].Dead {
			return id
		}
	}
	return -1
}

// TestUpdateMatchesRebuild drives random block edits — retargeted
// branches, changed fallthroughs, killed blocks, appended blocks wired
// into the graph — through Update and checks every result against a
// whole-function rebuild: successor and predecessor lists, reachability
// and reverse postorder.
func TestUpdateMatchesRebuild(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := ir.NewFunc("rand")
		n := 2 + rng.Intn(30)
		for len(f.Blocks) < n {
			f.NewBlock()
		}
		for _, b := range f.Blocks {
			randomBody(rng, f, b, n)
		}
		g := NewGraph(f)
		for step := 0; step < 200; step++ {
			var ids []int
			// Up to three edits between updates, so one Update sees
			// several blocks at once (and occasionally the same one twice).
			for k := 1 + rng.Intn(3); k > 0; k-- {
				switch rng.Intn(5) {
				case 0: // retarget every branch of a block
					id := rng.Intn(len(f.Blocks))
					if f.Blocks[id].Dead {
						continue
					}
					for _, in := range f.Blocks[id].Instrs {
						if in.Op.IsBranch() {
							in.Target = rng.Intn(len(f.Blocks))
						}
					}
					ids = append(ids, id)
				case 1: // change the fallthrough
					id := rng.Intn(len(f.Blocks))
					if f.Blocks[id].Dead {
						continue
					}
					f.Blocks[id].Fall = rng.Intn(len(f.Blocks)+1) - 1
					ids = append(ids, id)
				case 2: // kill a block (stray edges into it may remain)
					id := liveNonEntry(rng, f)
					if id < 0 {
						continue
					}
					f.Blocks[id].Dead = true
					f.Blocks[id].Instrs = nil
					ids = append(ids, id)
				case 3: // append a block and route an existing edge to it
					nb := f.NewBlock()
					randomBody(rng, f, nb, len(f.Blocks))
					ids = append(ids, nb.ID)
					if id := rng.Intn(len(f.Blocks)); !f.Blocks[id].Dead {
						f.Blocks[id].Fall = nb.ID
						ids = append(ids, id)
					}
				case 4: // rewrite a block's whole body
					id := rng.Intn(len(f.Blocks))
					if f.Blocks[id].Dead {
						continue
					}
					randomBody(rng, f, f.Blocks[id], len(f.Blocks))
					ids = append(ids, id)
				}
			}
			if rng.Intn(4) == 0 && len(ids) > 0 {
				ids = append(ids, ids[0])
			}
			g.Update(ids...)
			// Ask for the order only some of the time, so both a fresh
			// and a long-stale order get compared.
			if rng.Intn(2) == 0 {
				_ = g.Reachable(f.Entry)
			}
			if err := g.Verify(); err != nil {
				t.Fatalf("seed %d step %d: Update(%v): %v", seed, step, ids, err)
			}
		}
	}
}

// TestVerifyCatchesStaleGraph checks the oracle itself: an edit the graph
// was not told about must be reported.
func TestVerifyCatchesStaleGraph(t *testing.T) {
	f, ids := diamond()
	g := NewGraph(f)
	if err := g.Verify(); err != nil {
		t.Fatalf("fresh graph: %v", err)
	}
	f.Blocks[ids[2]].Fall = ids[4] // else now skips the join
	if err := g.Verify(); err == nil {
		t.Fatal("Verify missed an unreported edge change")
	}
	g.Update(ids[2])
	if err := g.Verify(); err != nil {
		t.Fatalf("after Update: %v", err)
	}
}
