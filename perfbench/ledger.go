package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"predication/internal/bench"
	"predication/internal/core"
	"predication/internal/emu"
	"predication/internal/experiments"
	"predication/internal/machine"
	"predication/internal/obs"
	"predication/internal/serve"
	"predication/internal/sim"
)

// stageNames are the compiler stages the ledger reports by name; time in
// any other recorded stage counts as unattributed.
var stageNames = []string{"normalize", "profile", "superblock-formation", "cleanup",
	"hyperblock-formation", "promotion", "branch-combining", "partial-conversion", "peephole", "schedule"}

// ledger is the traced run.  Whatever the workload, it measures every
// layer: a traced compile pass over the matrix (bench, core, emu decode,
// experiments), the layer arms over the compiled artifacts (emu, sim,
// obs), and a traced phase against the serving daemon (serve).  It also
// times the workload's own operation untraced and traced in the same
// process, which gives the tracing overhead.  Spans are written to
// .bench_build/ at the end.
func ledger(e *env) (map[string]metric, error) {
	if e.workload != "figures-cold" && e.workload != "sweep-warm" {
		return nil, fmt.Errorf("unknown workload %q (want figures-cold or sweep-warm)", e.workload)
	}
	e.tr = newTracer()
	out := map[string]metric{}
	ref, err := referenceChecksums()
	if err != nil {
		return nil, err
	}
	e.ref = ref

	// The compile pass times figures-cold's op untraced and traced in
	// pairs (pairedPass) and compiles the artifacts the arms and the sweep
	// need; for sweep-warm, a paired sweep pass gives the overhead instead.
	untraced, traced := &outcome{}, &outcome{}
	arts := e.tracedCompilePass(untraced, traced, out)
	if e.workload == "sweep-warm" {
		untraced, traced = &outcome{}, &outcome{}
		op := sweepOp([]map[string]*experiments.CellArtifact{arts}, sweepMachines())
		pairedPass(e, untraced, traced, rand.New(rand.NewSource(e.seed)), e.golden.SweepWarm, op,
			func(i int, c cell) ([]machine.Config, []*experiments.Measurement, error) {
				sp := e.tr.begin("experiments.MeasureAll", -1, i)
				defer e.tr.end(sp)
				return op(i, c)
			})
	}
	overhead(out, untraced, traced)
	e.arms(arts, out)
	if err := e.serveLedger(out); err != nil {
		return nil, err
	}
	out["trace.spans"] = metric{float64(len(e.tr.spans)), "count"}
	path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", e.workload, e.seed))
	if err := e.tr.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("# %d spans written to %s\n", len(e.tr.spans), path)
	return out, nil
}

// pairedPass times one pass of the workload's op twice over, untraced
// into plain and traced into traced: each cell, in an order drawn from
// rng, runs both ways back to back, untraced first on every other cell.
// Pairs share the host's state of the moment, so their ratio shows the
// tracing cost where whole passes would show the host's drift between
// them.
func pairedPass(e *env, plain, traced *outcome, rng *rand.Rand, want map[string][]string, plainOp, tracedOp cellOp) {
	runtime.GC()
	for k, i := range rng.Perm(len(e.cells)) {
		c := e.cells[i]
		for j := 0; j < 2; j++ {
			o, op := plain, plainOp
			if (k+j)%2 == 1 {
				o, op = traced, tracedOp
			}
			t := time.Now()
			cfgs, res, err := op(i, c)
			d := ms(time.Since(t))
			o.lat = append(o.lat, d)
			o.wall += d / 1e3
			o.simInstrs += e.checkCell(c, cfgs, res, err, want)
		}
	}
}

// overhead reports the workload's traced figures beside its untraced
// ones.  The overhead is the median over cells of the traced op's time
// over the untraced op's: both outcomes hold one op per cell, in the same
// order.
func overhead(out map[string]metric, untraced, traced *outcome) {
	ratios := make([]float64, len(traced.lat))
	for i := range ratios {
		ratios[i] = traced.lat[i] / untraced.lat[i]
	}
	out["trace.untraced_ops_per_s"] = metric{float64(len(untraced.lat)) / untraced.wall, "1/s"}
	out["trace.ops_per_s"] = metric{float64(len(traced.lat)) / traced.wall, "1/s"}
	out["trace.untraced_latency_p50_ms"] = metric{median(untraced.lat), "ms"}
	out["trace.latency_p50_ms"] = metric{median(traced.lat), "ms"}
	out["trace.overhead_pct"] = metric{(median(ratios) - 1) * 100, "%"}
}

// tracedCompilePass times one figures-cold pass as a pairedPass: into
// traced with a span around every layer call — kernel build, compile
// (with its stage records as child spans), decode, measure — and into
// untraced without.  It reports the compile-side ledger and returns the
// traced op's artifacts.
func (e *env) tracedCompilePass(untraced, traced *outcome, out map[string]metric) map[string]*experiments.CellArtifact {
	tr := e.tr
	arts := map[string]*experiments.CellArtifact{}
	op := func(i int, c cell) ([]machine.Config, []*experiments.Measurement, error) {
		root := tr.begin("cell", -1, i)
		defer tr.end(root)
		cfgs, res, art, err := e.tracedCell(c, root, i)
		if art != nil {
			arts[c.name()] = art
		}
		return cfgs, res, err
	}
	pairedPass(e, untraced, traced, rand.New(rand.NewSource(e.seed)), e.golden.FiguresCold, compileAndMeasure, op)

	self := tr.selfSeconds()
	compile := tr.durationsMS("core.Compile")
	var compileS float64
	for _, d := range compile {
		compileS += d / 1e3
	}
	out["bench.build_s"] = metric{self["bench.Build"], "s"}
	out["core.compile_s"] = metric{compileS, "s"}
	out["core.compile_p50_ms"] = metric{median(compile), "ms"}
	out["core.compile_max_ms"] = metric{percentile(compile, 100), "ms"}
	for _, s := range stageNames {
		out["core.stage."+s+"_s"] = metric{self["core.stage."+s], "s"}
	}
	out["core.stage.unattributed_s"] = metric{self["core.Compile"], "s"}
	out["emu.decode_s"] = metric{self["emu.Decode"], "s"}
	front := self["bench.Build"] + compileS + self["emu.Decode"]
	out["experiments.compile_share"] = metric{front / (front + self["experiments.MeasureAll"]), "ratio"}
	return arts
}

// tracedCell is one figures-cold operation made of its layer calls — the
// steps experiments.CompileCell takes — with a span around each.
func (e *env) tracedCell(c cell, root, op int) ([]machine.Config, []*experiments.Measurement, *experiments.CellArtifact, error) {
	tr := e.tr
	k, err := bench.ByName(c.kernel)
	if err != nil {
		return nil, nil, nil, err
	}
	sp := tr.begin("bench.Build", root, op)
	src := k.Build()
	tr.end(sp)

	target := experiments.SchedTarget(c.target)
	opts := core.DefaultOptions(target)
	opts.Pipeline = obs.NewPipelineTrace()
	sp = tr.begin("core.Compile", root, op)
	comp, err := core.Compile(src, c.model, opts)
	tr.end(sp)
	// Stage records are timed back to back from the trace's creation,
	// just before the compile span opened.
	// Stages not in stageNames stay in the compile span's self time.
	at := tr.spans[sp].Start
	for _, st := range opts.Pipeline.Stages {
		d := int64(st.WallSeconds * 1e9)
		if slices.Contains(stageNames, st.Stage) {
			tr.add("core.stage."+st.Stage, at, at+d, sp, op)
		}
		at += d
	}
	if err != nil {
		return nil, nil, nil, err
	}

	sp = tr.begin("emu.Decode", root, op)
	code, err := emu.Decode(comp.Prog)
	tr.end(sp)
	if err != nil {
		return nil, nil, nil, err
	}
	art := &experiments.CellArtifact{Kernel: c.kernel, Model: c.model, Target: target, Compiled: comp, Code: code}
	cfgs := experiments.SimsFor(target)
	sp = tr.begin("experiments.MeasureAll", root, op)
	res, err := art.MeasureAll(cfgs, false)
	tr.end(sp)
	return cfgs, res, art, err
}

// nullBatch is a BatchSink that drops every event: the cost of batch
// delivery with no consumer.
type nullBatch struct{}

func (nullBatch) Event(emu.Event)        {}
func (nullBatch) EventBatch([]emu.Event) {}

// armRun is one arm's sink for one artifact, and the check to make when
// the emulation has finished.
type armRun struct {
	sink  emu.TraceSink
	check func() error
}

type arm struct {
	name string
	make func(a *experiments.CellArtifact) armRun
}

// armTotals accumulates one arm's host time and emulated steps.
type armTotals struct {
	ns, steps int64
}

// arms runs every artifact once through each layer arm, arms in rotating
// order, each timed from outside around Code.Run.  Subtracting arms
// isolates each layer's self time per step: delivery (null BatchSink −
// nil sink), each timing engine (engine − null BatchSink), the gang per
// lane, and instrumentation (instrumented − plain).  The arms also check
// the engines against each other: a gang lane and the standalone engine
// for the same machine must agree exactly, and every cycle account must
// verify.
func (e *env) arms(arts map[string]*experiments.CellArtifact, out map[string]metric) {
	stock, stockOoO := stockMachines("0"), stockMachines("32")
	laneOf := func(cfgs []machine.Config, name string) int {
		for i, c := range cfgs {
			if c.Name == name || c.Name == name+"+ooo32" {
				return i
			}
		}
		return -1
	}
	var (
		inorderStats, ooo32Stats sim.Stats
		model                    sim.Stats // Σ over the 6-lane in-order gang
		causes                   obs.Breakdown
	)
	window := func(cfg machine.Config, w string) machine.Config {
		c, err := experiments.ApplyWindow(cfg, w)
		if err != nil {
			panic(err) // constant windows
		}
		return c
	}
	same := func(what string, got, want sim.Stats) error {
		if got != want {
			return fmt.Errorf("%s: %+v, standalone %+v", what, got, want)
		}
		return nil
	}
	arms := []arm{
		{"nil", func(a *experiments.CellArtifact) armRun { return armRun{} }},
		{"batch", func(a *experiments.CellArtifact) armRun { return armRun{sink: nullBatch{}} }},
		{"inorder", func(a *experiments.CellArtifact) armRun {
			s := sim.New(a.Compiled.Prog, a.Target)
			return armRun{s, func() error { inorderStats = s.Stats(); return nil }}
		}},
		{"ooo32", func(a *experiments.CellArtifact) armRun {
			s := sim.NewOoO(a.Compiled.Prog, window(a.Target, "32"))
			return armRun{s, func() error { ooo32Stats = s.Stats(); return nil }}
		}},
		{"ooo1", func(a *experiments.CellArtifact) armRun {
			return armRun{sink: sim.NewOoO(a.Compiled.Prog, window(a.Target, "1"))}
		}},
		{"instrumented", func(a *experiments.CellArtifact) armRun {
			s := sim.New(a.Compiled.Prog, a.Target)
			acct := &obs.CycleAccount{}
			s.Instrument(acct)
			return armRun{s, func() error {
				st := s.Stats()
				if err := acct.Verify(st.Cycles, st.Instrs, st.Nullified); err != nil {
					return err
				}
				if a.Target.Name == "issue8-br1" {
					causes.Add(&acct.Breakdown)
				}
				return same("instrumented", st, inorderStats)
			}}
		}},
		{"gang1", func(a *experiments.CellArtifact) armRun {
			g := sim.NewGang(a.Compiled.Prog, []machine.Config{a.Target})
			return armRun{g, func() error { return same("gang1", g.Stats(0), inorderStats) }}
		}},
		{"gang6", func(a *experiments.CellArtifact) armRun {
			g := sim.NewGang(a.Compiled.Prog, stock)
			return armRun{g, func() error {
				for i := range stock {
					st := g.Stats(i)
					model.Cycles += st.Cycles
					model.Instrs += st.Instrs
					model.Nullified += st.Nullified
					model.Mispredicts += st.Mispredicts
					model.ICacheMisses += st.ICacheMisses
					model.DCacheMisses += st.DCacheMisses
				}
				return same("gang6 lane", g.Stats(laneOf(stock, a.Target.Name)), inorderStats)
			}}
		}},
		{"gang6ooo32", func(a *experiments.CellArtifact) armRun {
			g := sim.NewGang(a.Compiled.Prog, stockOoO)
			return armRun{g, func() error {
				return same("gang6ooo32 lane", g.Stats(laneOf(stockOoO, a.Target.Name)), ooo32Stats)
			}}
		}},
	}
	totals := make([]armTotals, len(arms))
	runtime.GC()
	for ci, c := range e.cells {
		a := arts[c.name()]
		if a == nil {
			continue // its compile failed and was counted
		}
		// Parity checks read the standalone engines' stats, so those arms
		// run first; the rest rotate to spread drift across arms.
		order := []int{2, 3}
		for k := 0; k < len(arms); k++ {
			if j := (ci + k) % len(arms); j != 2 && j != 3 {
				order = append(order, j)
			}
		}
		for _, j := range order {
			r := arms[j].make(a)
			sp := e.tr.begin("Code.Run/"+arms[j].name, -1, ci)
			t := time.Now()
			run, err := a.Code.Run(emu.Options{Sink: r.sink})
			d := time.Since(t)
			e.tr.end(sp)
			e.attempted++
			switch {
			case err != nil:
				e.fail("%s arm %s: %v", c.name(), arms[j].name, err)
			case run.Word(bench.CheckAddr) != e.ref[c.kernel]:
				e.fail("%s arm %s: checksum %d, reference %d", c.name(), arms[j].name, run.Word(bench.CheckAddr), e.ref[c.kernel])
			case r.check != nil:
				if err := r.check(); err != nil {
					e.fail("%s arm %s: %v", c.name(), arms[j].name, err)
				}
			}
			if err == nil {
				totals[j].ns += d.Nanoseconds()
				totals[j].steps += run.Steps
			}
		}
	}
	per := map[string]float64{}
	for j, a := range arms {
		per[a.name] = float64(totals[j].ns) / float64(totals[j].steps)
	}
	self := func(name string) float64 { return per[name] - per["batch"] }
	out["emu.steps"] = metric{float64(totals[0].steps), "count"}
	out["emu.ns_per_step"] = metric{per["nil"], "ns"}
	out["emu.batch_ns_per_step"] = metric{per["batch"], "ns"}
	out["sim.inorder_ns_per_step"] = metric{self("inorder"), "ns"}
	out["sim.ooo32_ns_per_step"] = metric{self("ooo32"), "ns"}
	out["sim.gang1_ns_per_step"] = metric{self("gang1"), "ns"}
	out["sim.gang_inorder_ns_per_lane_step"] = metric{self("gang6") / 6, "ns"}
	out["sim.gang_ooo32_ns_per_lane_step"] = metric{self("gang6ooo32") / 6, "ns"}
	out["sim.gang1_over_inorder"] = metric{self("gang1") / self("inorder"), "ratio"}
	out["sim.gang_ooo_over_ooo32"] = metric{self("gang6ooo32") / 6 / self("ooo32"), "ratio"}
	out["sim.ooo1_over_inorder"] = metric{self("ooo1") / self("inorder"), "ratio"}
	out["obs.instrument_ns_per_step"] = metric{per["instrumented"] - per["inorder"], "ns"}
	out["obs.instrumented_over_plain"] = metric{per["instrumented"] / per["inorder"], "ratio"}
	out["sim.cycles"] = metric{float64(model.Cycles), "count"}
	out["sim.instrs"] = metric{float64(model.Instrs), "count"}
	out["sim.nullified"] = metric{float64(model.Nullified), "count"}
	out["sim.mispredicts"] = metric{float64(model.Mispredicts), "count"}
	out["sim.icache_misses"] = metric{float64(model.ICacheMisses), "count"}
	out["sim.dcache_misses"] = metric{float64(model.DCacheMisses), "count"}
	for i, name := range obs.CauseNames() {
		out["obs.cycles."+name] = metric{float64(causes[i]), "count"}
	}
}

// serveLedger warms a daemon (serveSetup), drives it for serveTracePhase
// with a span around every request, and reports the serving layer: cache
// dispositions, the daemon's own counters, per-stage Server-Timing
// medians, the client-side overhead around them, and the cost of
// computing one result key.
func (e *env) serveLedger(out map[string]metric) error {
	coords := serveCoords()
	d, err := e.serveSetup(coords)
	if err != nil {
		return err
	}
	defer d.stop()
	reg := d.srv.Registry()
	counter := func(name string) int64 { return reg.Counter(name).Value() }
	req0, exe0, coal0, fill0 := counter("serve_requests"), counter("serve_executions"), counter("serve_coalesced"), counter("serve_gang_fill")
	runtime.GC()
	rs := e.drive(d, coords, until(newZipfSequence(e.seed, len(coords)), time.Now().Add(serveTracePhase)))
	e.tally(coords, rs)
	req, exe := counter("serve_requests")-req0, counter("serve_executions")-exe0
	coal, fill := counter("serve_coalesced")-coal0, counter("serve_gang_fill")-fill0

	stages := map[string][]float64{}
	var overheadMS []float64
	hits, failed := 0, 0
	for i, r := range rs {
		if !r.ok {
			failed++
		}
		e.tr.add("http "+coords[r.coord].endpoint(), r.start, r.end, -1, i)
		if r.cache == "hit" {
			hits++
		}
		for name, v := range r.stages {
			stages[name] = append(stages[name], v)
		}
		if total, ok := r.stages["total"]; ok {
			overheadMS = append(overheadMS, r.ms-total)
		}
	}
	n := float64(len(rs))
	out["serve.requests"] = metric{n, "count"}
	out["serve.hit_ratio"] = metric{float64(hits) / n, "ratio"}
	out["serve.coalesced_ratio"] = metric{float64(coal) / float64(req), "ratio"}
	out["serve.executions"] = metric{float64(exe), "count"}
	out["serve.gang_fill_per_execution"] = metric{float64(fill) / float64(max(exe, 1)), "ratio"}
	for _, name := range []string{"mem", "queue", "compile", "measure", "render", "wait", "total"} {
		v := 0.0
		if len(stages[name]) > 0 {
			v = median(stages[name])
		}
		out["serve.stage."+name+"_ms"] = metric{v, "ms"}
		fmt.Printf("# serve.stage.%s: %d samples\n", name, len(stages[name]))
	}
	out["serve.http_overhead_ms"] = metric{median(overheadMS), "ms"}
	out["serve.result_key_us"] = metric{resultKeyMicros(coords), "us"}
	fmt.Printf("# serving phase: %d requests sent, %d succeeded, %d failed, %d counted by the daemon, %d executions\n",
		len(rs), len(rs)-failed, failed, req, exe)
	return nil
}

// resultKeyMicros times serve.ResultKey over the whole coordinate space,
// five times, and returns the median microseconds per call.
func resultKeyMicros(coords []serveCoord) float64 {
	type arg struct {
		kernel  string
		model   core.Model
		cfg     machine.Config
		observe bool
	}
	args := make([]arg, len(coords))
	for i, c := range coords {
		cfg, err := machine.ByName(c.machine)
		if err == nil {
			cfg, err = experiments.ApplyWindow(cfg, c.window)
		}
		if err != nil {
			panic(err) // coordinates are built from machine.Names
		}
		args[i] = arg{c.kernel, c.model, cfg, c.breakdown}
	}
	var per []float64
	for rep := 0; rep < 5; rep++ {
		t := time.Now()
		for _, a := range args {
			serve.ResultKey(a.kernel, a.model, a.cfg, a.observe)
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/1e3/float64(len(args)))
	}
	return median(per)
}
