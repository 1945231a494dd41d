package main

import (
	"math/rand"
	"runtime"
	"time"

	"predication/internal/experiments"
	"predication/internal/machine"
)

const (
	// setupReps is how many times sweep-warm sets up; setup_s is the
	// median.  figures-cold's set-up, the reference runs alone, takes
	// about 50 ms, and the host's speed drifts over seconds; it repeats
	// coldSetupReps times before every pass instead (figuresCold).
	setupReps     = 3
	coldSetupReps = 5
	// minPasses is the fewest whole passes over the matrix a run times,
	// so every run samples every cell at least three times, and
	// sweep-warm measures each of its set-ups' artifacts.
	minPasses = setupReps
)

// cellOp is one timed operation on a cell; i is the cell's index, the
// operation ID of its spans.  It returns the measurements and the lane
// configurations they belong to.
type cellOp func(i int, c cell) ([]machine.Config, []*experiments.Measurement, error)

// timePass times op once per cell in an order drawn from rng and checks
// each result after the clock stops.  A GC runs first, outside the timed
// region.
func timePass(e *env, o *outcome, rng *rand.Rand, want map[string][]string, op cellOp) {
	runtime.GC()
	start := time.Now()
	for _, i := range rng.Perm(len(e.cells)) {
		c := e.cells[i]
		t := time.Now()
		cfgs, res, err := op(i, c)
		o.lat = append(o.lat, ms(time.Since(t)))
		o.simInstrs += e.checkCell(c, cfgs, res, err, want)
	}
	pass := time.Since(start).Seconds()
	o.passes = append(o.passes, pass)
	o.wall += pass
}

// runPasses times whole passes of op until at least minPasses and
// e.seconds of passes have run.  before, when not nil, runs ahead of
// every pass, outside the timed region.
func runPasses(e *env, o *outcome, want map[string][]string, op cellOp, before func() error) error {
	rng := rand.New(rand.NewSource(e.seed))
	for o.wall < e.seconds || len(o.passes) < minPasses {
		if before != nil {
			if err := before(); err != nil {
				return err
			}
		}
		timePass(e, o, rng, want, op)
	}
	return nil
}

// checkCell verifies one cell's measurements: every lane's checksum
// against the uncompiled reference run, and the hash of every lane's
// stats against the golden value.  It returns the simulated instructions
// the measurements delivered (steps × lanes), or 0 when the op failed.
func (e *env) checkCell(c cell, cfgs []machine.Config, res []*experiments.Measurement, err error, want map[string][]string) int64 {
	e.attempted++
	if err != nil {
		e.fail("%s: %v", c.name(), err)
		return 0
	}
	for i, m := range res {
		if m.Checksum != e.ref[c.kernel] {
			e.fail("%s @ %s: checksum %d, reference %d", c.name(), cfgs[i].Name, m.Checksum, e.ref[c.kernel])
			return 0
		}
	}
	if !e.checkHash(c.name(), c.name(), hashMeasurements(res), want[c.name()]) {
		e.fail("%s: stats differ from every golden variant", c.name())
		return 0
	}
	for i, cfg := range cfgs {
		if !cfg.OoO && experiments.SchedTarget(cfg).Name == c.target.Name {
			e.cycles[c.kernel+"/"+modelName(c.model)+"/"+cfg.Name] = res[i].Stats.Cycles
		}
	}
	return res[0].Steps * int64(len(res))
}

// compileAndMeasure is the figures-cold op: compile the cell from source,
// then measure it on the machines sharing its scheduled code.
func compileAndMeasure(_ int, c cell) ([]machine.Config, []*experiments.Measurement, error) {
	art, err := experiments.CompileCell(c.kernel, c.model, c.target)
	if err != nil {
		return nil, nil, err
	}
	cfgs := experiments.SimsFor(art.Target)
	res, err := art.MeasureAll(cfgs, false)
	return cfgs, res, err
}

// sweepOp is the sweep-warm op: measure a precompiled artifact on cfgs.
// sets holds one compile of the matrix per set-up; a cell's successive
// ops take its artifact from each set in turn.
func sweepOp(sets []map[string]*experiments.CellArtifact, cfgs []machine.Config) cellOp {
	uses := map[int]int{}
	return func(i int, c cell) ([]machine.Config, []*experiments.Measurement, error) {
		art := sets[uses[i]%len(sets)][c.name()]
		uses[i]++
		res, err := art.MeasureAll(cfgs, false)
		return cfgs, res, err
	}
}

// figuresCold is the researcher's path: set-up runs the reference
// emulations, and every op compiles one cell and measures it.  The
// set-up repeats before every pass, so setup_s, like the op figures, is
// a median over the whole run rather than over the host's speed of one
// moment.
func figuresCold(e *env) (*outcome, error) {
	o := &outcome{}
	setup := func() error {
		for i := 0; i < coldSetupReps; i++ {
			runtime.GC()
			t := time.Now()
			ref, err := referenceChecksums()
			if err != nil {
				return err
			}
			o.setup = append(o.setup, time.Since(t).Seconds())
			e.ref = ref
		}
		return nil
	}
	if err := runPasses(e, o, e.golden.FiguresCold, compileAndMeasure, setup); err != nil {
		return nil, err
	}
	return o, nil
}

// precompile compiles every cell of the matrix once.
func precompile(e *env) (map[string]*experiments.CellArtifact, error) {
	arts := map[string]*experiments.CellArtifact{}
	for _, c := range e.cells {
		art, err := experiments.CompileCell(c.kernel, c.model, c.target)
		if err != nil {
			return nil, err
		}
		arts[c.name()] = art
	}
	return arts, nil
}

// sweepWarm is one stream priced on many machines: set-up runs the
// reference emulations and compiles the whole matrix, and every op
// measures one artifact on 12 lanes (six machines, in-order and with a
// 32-entry window) in one emulation.  Every set-up's artifacts are kept
// and measured in turn, so each cell's ops cover several compiles of it
// (README.md, "Known defect").
func sweepWarm(e *env) (*outcome, error) {
	o := &outcome{}
	var sets []map[string]*experiments.CellArtifact
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t := time.Now()
		ref, err := referenceChecksums()
		if err != nil {
			return nil, err
		}
		arts, err := precompile(e)
		if err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(t).Seconds())
		e.ref = ref
		sets = append(sets, arts)
	}
	if err := runPasses(e, o, e.golden.SweepWarm, sweepOp(sets, sweepMachines()), nil); err != nil {
		return nil, err
	}
	return o, nil
}
