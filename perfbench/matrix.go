package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io/fs"
	"os"
	"slices"
	"sort"

	"predication/internal/bench"
	"predication/internal/core"
	"predication/internal/emu"
	"predication/internal/experiments"
	"predication/internal/machine"
	"predication/internal/obs"
	"predication/internal/sim"
)

// cell is one kernel × model × scheduling-target point of the paper's
// evaluation matrix: the unit the compiler produces.
type cell struct {
	kernel string
	model  core.Model
	target machine.Config
}

func (c cell) name() string { return c.kernel + "/" + modelName(c.model) + "/" + c.target.Name }

// modelName is the model's name in the serving API.
func modelName(m core.Model) string {
	switch m {
	case core.Superblock:
		return "superblock"
	case core.CondMove:
		return "cmov"
	case core.FullPred:
		return "full"
	}
	panic(fmt.Sprintf("perfbench: model %v is not in the matrix", m))
}

func benchNames() []string {
	var names []string
	for _, k := range bench.All() {
		names = append(names, k.Name)
	}
	return names
}

// matrix lists the 150 cells the figures harness compiles, kernel-major:
// 15 kernels × (superblock on 4 targets + conditional move and full
// predication on the 3 multi-issue targets; the 1-issue baseline is
// always superblock code).
func matrix() []cell {
	var cells []cell
	for _, k := range bench.All() {
		for _, m := range experiments.Models {
			for _, t := range schedTargets() {
				if t.Name == "issue1" && m != core.Superblock {
					continue
				}
				cells = append(cells, cell{k.Name, m, t})
			}
		}
	}
	return cells
}

// schedTargets are the machines code is scheduled for; the cache
// variants share their base machine's code.
func schedTargets() []machine.Config {
	return []machine.Config{machine.Issue1(), machine.Issue4Br1(), machine.Issue8Br1(), machine.Issue8Br2()}
}

// stockMachines returns the six named machines, specialised for one
// window ("0" in-order, "32" an out-of-order window of 32 entries).
func stockMachines(window string) []machine.Config {
	var cfgs []machine.Config
	for _, n := range machine.Names() {
		c, err := machine.ByName(n)
		if err != nil {
			panic(err) // Names and ByName disagree: a bug
		}
		if c, err = experiments.ApplyWindow(c, window); err != nil {
			panic(err)
		}
		cfgs = append(cfgs, c)
	}
	return cfgs
}

// sweepMachines is the 12-lane sweep: the six stock machines in order,
// then the same six with a 32-entry out-of-order window.
func sweepMachines() []machine.Config {
	return append(stockMachines("0"), stockMachines("32")...)
}

// referenceChecksums runs every kernel's uncompiled source once; every
// compiled run of the kernel, on any model and machine, must store the
// same checksum.
func referenceChecksums() (map[string]int64, error) {
	ref := map[string]int64{}
	for _, k := range bench.All() {
		run, err := emu.Run(k.Build(), emu.Options{})
		if err != nil {
			return nil, fmt.Errorf("reference run of %s: %w", k.Name, err)
		}
		ref[k.Name] = run.Word(bench.CheckAddr)
	}
	return ref, nil
}

// statsHash hashes simulated statistics, and breakdowns where given, in
// argument order.  Only simulated quantities enter it, so a change that
// only speeds the program up leaves it unchanged.
type statsHash struct{ h hash.Hash }

func newStatsHash() *statsHash { return &statsHash{sha256.New()} }

func (s *statsHash) stats(st sim.Stats) { fmt.Fprintf(s.h, "%+v;", st) }

func (s *statsHash) breakdown(b *obs.Breakdown) { fmt.Fprintf(s.h, "%v;", *b) }

func (s *statsHash) sum() string { return hex.EncodeToString(s.h.Sum(nil)[:8]) }

func hashMeasurements(ms []*experiments.Measurement) string {
	h := newStatsHash()
	for _, m := range ms {
		h.stats(m.Stats)
	}
	return h.sum()
}

// golden holds the statistics hashes of every operation, recorded with
// -record-golden from the commit that introduced the benchmark.  A
// speed-only change must reproduce them; a change to the timing model
// re-records them and says so.
//
// Each entry is a list because that commit compiles some cells
// nondeterministically: hyperblock tail duplication numbers the blocks it
// copies in map-iteration order, and on a few cells the resulting layout
// reaches the cache and branch-predictor lanes.  Entries list every
// variant the recordings saw; README.md, "Known defect", says how the
// checks treat the cells in Nondeterministic.
type golden struct {
	// FiguresCold maps a cell to the hash of its sibling-lane stats
	// (experiments.SimsFor of its target, in-order).
	FiguresCold map[string][]string `json:"figures_cold"`
	// SweepWarm maps a cell to the hash of its 12 sweep lanes.
	SweepWarm map[string][]string `json:"sweep_warm"`
	// ServeZipf maps a request coordinate (serveCoord.key) to the hash of
	// its response's stats, and breakdown for /v1/breakdown.
	ServeZipf map[string][]string `json:"serve_zipf"`
	// Nondeterministic lists the cells (cell.name) whose compiles produced
	// more than one program while recording.
	Nondeterministic []string `json:"nondeterministic"`
}

//go:embed golden.json
var goldenJSON []byte

func loadGolden() (*golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

// A cell is compiled up to probeCompiles times while recording, or until
// variantCompiles distinct programs have been seen.
const (
	probeCompiles   = 100
	variantCompiles = 40
)

// compileVariants compiles a cell repeatedly and returns one artifact per
// distinct compiled program seen.
func compileVariants(kernel string, model core.Model, target machine.Config) ([]*experiments.CellArtifact, error) {
	seen := map[string]bool{}
	var arts []*experiments.CellArtifact
	for i := 0; i < probeCompiles && len(arts) < variantCompiles; i++ {
		art, err := experiments.CompileCell(kernel, model, target)
		if err != nil {
			return nil, err
		}
		if text := art.Compiled.Prog.String(); !seen[text] {
			seen[text] = true
			arts = append(arts, art)
		}
	}
	return arts, nil
}

// recordGolden measures every cell and serving coordinate, every
// compiled variant of each, and adds the hashes to the golden file at
// path (created when missing; delete it to start afresh).
func recordGolden(path string) error {
	g := golden{FiguresCold: map[string][]string{}, SweepWarm: map[string][]string{}, ServeZipf: map[string][]string{}}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &g); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	add := func(m map[string][]string, k, h string) {
		if !slices.Contains(m[k], h) {
			m[k] = append(m[k], h)
		}
	}
	inMatrix := map[string]bool{}
	for _, c := range matrix() {
		inMatrix[c.name()] = true
	}
	sweep := sweepMachines()
	// The server compiles every model for every scheduling target,
	// issue1 included, so its coordinates cover 180 artifacts; the
	// matrix's 150 are among them.
	for _, k := range bench.All() {
		for _, m := range experiments.Models {
			for _, t := range schedTargets() {
				c := cell{k.Name, m, t}
				arts, err := compileVariants(k.Name, m, t)
				if err != nil {
					return err
				}
				if len(arts) > 1 && !slices.Contains(g.Nondeterministic, c.name()) {
					g.Nondeterministic = append(g.Nondeterministic, c.name())
				}
				for _, art := range arts {
					if inMatrix[c.name()] {
						ms, err := art.MeasureAll(experiments.SimsFor(art.Target), false)
						if err != nil {
							return err
						}
						add(g.FiguresCold, c.name(), hashMeasurements(ms))
						if ms, err = art.MeasureAll(sweep, false); err != nil {
							return err
						}
						add(g.SweepWarm, c.name(), hashMeasurements(ms))
					}
					for _, w := range serveWindows {
						var cfgs []machine.Config
						for _, mc := range experiments.SimsFor(art.Target) {
							if mc, err = experiments.ApplyWindow(mc, w); err != nil {
								return err
							}
							cfgs = append(cfgs, mc)
						}
						ms, err := art.MeasureAll(cfgs, true)
						if err != nil {
							return err
						}
						for i, mc := range experiments.SimsFor(art.Target) {
							coord := serveCoord{k.Name, m, mc.Name, w, false}
							add(g.ServeZipf, coord.key(), responseHash(ms[i].Stats, nil))
							coord.breakdown = true
							add(g.ServeZipf, coord.key(), responseHash(ms[i].Stats, &ms[i].Account.Breakdown))
						}
					}
				}
			}
		}
	}
	sort.Strings(g.Nondeterministic)
	b, err := json.MarshalIndent(&g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func responseHash(st sim.Stats, b *obs.Breakdown) string {
	h := newStatsHash()
	h.stats(st)
	if b != nil {
		h.breakdown(b)
	}
	return h.sum()
}
