package hyperblock_test

import (
	"testing"

	"predication/internal/bench"
	"predication/internal/cfg"
	"predication/internal/core"
	"predication/internal/hyperblock"
	"predication/internal/machine"
)

// TestIncrementalGraphMatchesRebuild compiles every kernel under every
// predicated model and checks, after each local graph update in
// hyperblock formation, that the graph equals a whole-function rebuild.
func TestIncrementalGraphMatchesRebuild(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the whole kernel suite")
	}
	var checks int
	var firstErr error
	defer hyperblock.SetGraphCheck(func(g *cfg.Graph) {
		checks++
		if err := g.Verify(); err != nil && firstErr == nil {
			firstErr = err
		}
	})()
	opts := core.DefaultOptions(machine.Issue8Br1())
	for _, k := range bench.All() {
		for _, model := range []core.Model{core.CondMove, core.FullPred, core.GuardInstr} {
			if _, err := core.Compile(k.Build(), model, opts); err != nil {
				t.Fatalf("%s %v: %v", k.Name, model, err)
			}
			if firstErr != nil {
				t.Fatalf("%s %v: after a local update: %v", k.Name, model, firstErr)
			}
		}
	}
	if checks == 0 {
		t.Fatal("formation never updated its graph; the check ran on nothing")
	}
	t.Logf("%d updates checked", checks)
}
