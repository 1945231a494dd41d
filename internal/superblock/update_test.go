package superblock_test

import (
	"testing"

	"predication/internal/bench"
	"predication/internal/cfg"
	"predication/internal/core"
	"predication/internal/machine"
	"predication/internal/superblock"
)

// TestIncrementalGraphMatchesRebuild compiles every kernel for the
// superblock model and checks, after each local graph update in
// superblock formation, that the graph equals a whole-function rebuild.
func TestIncrementalGraphMatchesRebuild(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the whole kernel suite")
	}
	var checks int
	var firstErr error
	defer superblock.SetGraphCheck(func(g *cfg.Graph) {
		checks++
		if err := g.Verify(); err != nil && firstErr == nil {
			firstErr = err
		}
	})()
	opts := core.DefaultOptions(machine.Issue8Br1())
	for _, k := range bench.All() {
		if _, err := core.Compile(k.Build(), core.Superblock, opts); err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if firstErr != nil {
			t.Fatalf("%s: after a local update: %v", k.Name, firstErr)
		}
	}
	if checks == 0 {
		t.Fatal("formation never updated its graph; the check ran on nothing")
	}
	t.Logf("%d updates checked", checks)
}
