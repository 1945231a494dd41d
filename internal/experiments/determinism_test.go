package experiments

import (
	"testing"

	"predication/internal/asm"
	"predication/internal/core"
)

// TestPredicatedCellsCompileDeterministically compiles every predicated
// matrix cell of alvinn and lex twice and requires identical programs.
// Hyperblock formation on these kernels duplicates tails on more than one
// side entrance, so any dependence on map iteration order (which block is
// duplicated first, which IDs its clones get) shows up as differing
// listings from one compile to the next.
func TestPredicatedCellsCompileDeterministically(t *testing.T) {
	for _, kernel := range []string{"052.alvinn", "lex"} {
		for _, cell := range matrixCells() {
			if cell.model == core.Superblock {
				continue
			}
			var first string
			for i := 0; i < 2; i++ {
				a, err := CompileCell(kernel, cell.model, cell.target)
				if err != nil {
					t.Fatal(err)
				}
				text := asm.Format(a.Compiled.Prog)
				if i == 0 {
					first = text
				} else if text != first {
					t.Errorf("%s %v @ %s: two compiles emitted different programs", kernel, cell.model, cell.target.Name)
				}
			}
		}
	}
}
