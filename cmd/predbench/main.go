// Command predbench is the reproducible performance harness.  It
// compiles the full experiment matrix (every kernel × model × machine
// cell) exactly once, then times the suite's complete emulation +
// simulation workload on the pre-decoded data path and, with -compare,
// again on the legacy tree-walking interpreter + map-based simulator
// baseline.  Because both arms execute the same precompiled programs
// (the interpreters are pinned event-for-event identical by the
// differential tests, so shared compilation changes nothing), the
// reported speedup isolates exactly the dynamic-execution path this
// optimization work rebuilt; the one-time compilation cost is reported
// separately as compile_seconds.
//
// With -gang (the default) the harness additionally times the
// full-matrix sweep — every artifact measured on every machine
// configuration — on both multi-config data paths: the fast per-config
// arm (one simulator per configuration fanned out over one emulation)
// and the gang arm (one sim.Gang stepping all configurations through
// the same event batches in a single pass).  gang_speedup is the
// wall-clock ratio of those two arms: the speedup over the fast arm,
// reported alongside the fast/legacy speedup so BENCH_PR6.json is
// directly comparable to BENCH_PR3.json.
//
// The JSON report records wall clock and steps/second per arm, both
// speedups, and the steady-state allocations per emulated step of the
// fast path and of the gang sweep loop.
//
// Usage:
//
//	predbench                               # full suite, all arms, report on stdout
//	predbench -kernels wc,cmp -compare=false
//	predbench -out bench.json -parallel 1 -predictor btb,gshare
//
// The report always goes to stdout; -out additionally writes it to a file.
// A bare run writes no file, so it never overwrites a committed report.
//
// The exit status is non-zero when any suite cell fails or either
// measured allocations-per-step figure exceeds -max-allocs-per-step
// (the zero-allocation regression gate used by CI).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"predication/internal/bench"
	"predication/internal/core"
	"predication/internal/emu"
	"predication/internal/experiments"
	"predication/internal/machine"
	"predication/internal/obs"
	"predication/internal/sim"
)

func main() {
	if err := safeRun(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "predbench:", err)
		os.Exit(1)
	}
}

// safeRun converts a panic anywhere in the harness into an ordinary
// one-line error, so the command never dies with a stack trace.
func safeRun(args []string, out, errw io.Writer) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("internal error: %v", r)
		}
	}()
	return run(args, out, errw)
}

// armResult is the timing of the suite's emulation + simulation workload
// on one data path (compilation is shared and timed separately).
type armResult struct {
	WallSeconds float64 `json:"wall_seconds"`
	Steps       int64   `json:"steps"`
	StepsPerSec float64 `json:"steps_per_sec"`
}

// report is the schema of the JSON benchmark artifact.
type report struct {
	Date           string     `json:"date"`
	GoVersion      string     `json:"go_version"`
	GOOS           string     `json:"goos"`
	GOARCH         string     `json:"goarch"`
	CPU            string     `json:"cpu,omitempty"`
	NumCPU         int        `json:"num_cpu"`
	Parallel       int        `json:"parallel"`
	Trials         int        `json:"trials"`
	Kernels        []string   `json:"kernels"`
	CompileSeconds float64    `json:"compile_seconds"`
	Fast           armResult  `json:"fast"`
	Legacy         *armResult `json:"legacy,omitempty"`
	Speedup        float64    `json:"speedup,omitempty"`
	// The full-matrix sweep arms (-gang): every artifact measured on
	// every machine configuration, once per configuration on the fast
	// per-config path and once through the single-pass gang simulator.
	// GangSpeedup = SweepPerConfig.WallSeconds / SweepGang.WallSeconds —
	// the gang arm's speedup over the fast arm.
	SweepPredictors []string   `json:"sweep_predictors,omitempty"`
	SweepWindows    []int      `json:"sweep_windows,omitempty"`
	SweepPerConfig  *armResult `json:"sweep_per_config,omitempty"`
	SweepGang       *armResult `json:"sweep_gang,omitempty"`
	GangSpeedup     float64    `json:"gang_speedup,omitempty"`
	AllocsPerStep   float64    `json:"allocs_per_step"`
	AllocKernel     string     `json:"alloc_kernel"`
	AllocSteps      int64      `json:"alloc_steps"`
	// GangAllocsPerStep is the same steady-state gate over the gang
	// sweep loop: one emulation of AllocKernel driving a gang of every
	// stock machine configuration.
	GangAllocsPerStep float64 `json:"gang_allocs_per_step,omitempty"`
	// OoOAllocsPerStep is the steady-state gate over the out-of-order
	// scheduler: one emulation of AllocKernel driving the window-32 OoO
	// variant of the 8-issue machine.  The issue-slot ring grows by
	// doubling, so a healthy figure is indistinguishable from zero.
	OoOAllocsPerStep float64 `json:"ooo_allocs_per_step,omitempty"`
	// Machines describes every simulator configuration the suite matrix
	// exercises, so the committed artifact records what it measured.
	Machines []obs.MachineMeta `json:"machines"`
	// SweepMachines describes every simulator configuration the sweep
	// arms measure (the stock matrix crossed with -predictor).
	SweepMachines []obs.MachineMeta `json:"sweep_machines,omitempty"`
	// Breakdowns (with -breakdown) aggregates each model's stall-cycle
	// decomposition over the 8-issue 1-branch cells, measured on an
	// instrumented extra pass outside the timed region.
	Breakdowns map[string]*obs.CycleAccount `json:"breakdowns,omitempty"`
}

// run parses args, times the suite on each requested data path, measures
// steady-state allocations per step, and writes the JSON report.
func run(args []string, out, errw io.Writer) error {
	fs := flag.NewFlagSet("predbench", flag.ContinueOnError)
	fs.SetOutput(errw)
	kernelList := fs.String("kernels", "", "comma-separated kernel names (default: all)")
	outPath := fs.String("out", "", "also write the JSON report to this file (default: stdout only)")
	parallel := fs.Int("parallel", 0, "worker pool size for the suite matrix (0 = GOMAXPROCS, 1 = sequential)")
	compare := fs.Bool("compare", true, "also time the legacy interpreter + map-based simulator baseline")
	gang := fs.Bool("gang", true, "also time the full-matrix sweep arms: single-pass gang simulator vs fast per-config fanout")
	predictor := fs.String("predictor", "", "comma-separated branch predictors the sweep arms cross the matrix with (btb, gshare; default btb)")
	window := fs.String("window", "", "comma-separated instruction-window sizes the sweep arms cross the matrix with (0 = in-order; default 0)")
	trials := fs.Int("trials", 3, "timed repetitions per arm; the fastest is reported (noise only ever adds time)")
	maxAllocs := fs.Float64("max-allocs-per-step", 0.001,
		"fail when the fast path's steady-state allocations per emulated step exceed this")
	breakdown := fs.Bool("breakdown", false,
		"attach each model's aggregate stall-cycle breakdown to the report (an extra instrumented pass outside the timed region)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the fast-path suite run to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parallel < 0 {
		return fmt.Errorf("-parallel %d: worker count cannot be negative", *parallel)
	}
	if *trials < 1 {
		return fmt.Errorf("-trials %d: need at least one timed repetition", *trials)
	}
	if *predictor != "" && !*gang {
		return fmt.Errorf("-predictor applies to the sweep arms and cannot be combined with -gang=false")
	}
	if *window != "" && !*gang {
		return fmt.Errorf("-window applies to the sweep arms and cannot be combined with -gang=false")
	}
	var preds []string
	if *predictor != "" {
		preds = strings.Split(*predictor, ",")
	}
	wins, err := parseWindows(*window)
	if err != nil {
		return err
	}
	// Fail on a bad predictor or window list before the matrix compiles.
	if _, err := experiments.SimConfigNames(preds, wins); err != nil {
		return err
	}

	var kernels []string
	if *kernelList != "" {
		kernels = strings.Split(*kernelList, ",")
	} else {
		for _, k := range bench.All() {
			kernels = append(kernels, k.Name)
		}
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer func() {
			runtime.GC()
			pprof.Lookup("allocs").WriteTo(f, 0)
			f.Close()
		}()
	}

	rep := report{
		Date:      time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPU:       cpuModel(),
		NumCPU:    runtime.NumCPU(),
		Parallel:  *parallel,
		Trials:    *trials,
		Kernels:   kernels,
	}

	fmt.Fprintf(errw, "compiling %d kernels × matrix...\n", len(kernels))
	start := time.Now()
	pre, err := experiments.Precompile(kernels, *parallel)
	if err != nil {
		return fmt.Errorf("compile: %w", err)
	}
	rep.CompileSeconds = time.Since(start).Seconds()
	fmt.Fprintf(errw, "compiled in %.2fs (shared by both arms)\n", rep.CompileSeconds)

	// One timed repetition of one arm.  Ambient noise (scheduler, page
	// cache, sibling load) only ever adds wall time, so the minimum over
	// -trials repetitions is the robust estimate of each arm's cost; the
	// arms interleave so a noisy stretch cannot bias one side only.
	armTrial := func(label string, legacy bool) (armResult, error) {
		fmt.Fprintf(errw, "timing %s interpreter path (%d kernels)...\n", label, len(kernels))
		runtime.GC()
		start := time.Now()
		steps, err := pre.RunArm(legacy, *parallel)
		wall := time.Since(start).Seconds()
		if err != nil {
			return armResult{}, fmt.Errorf("%s arm: %w", label, err)
		}
		res := armResult{WallSeconds: wall, Steps: steps}
		if wall > 0 {
			res.StepsPerSec = float64(steps) / wall
		}
		fmt.Fprintf(errw, "%s: %.2fs wall, %d steps, %.1f Msteps/s\n",
			label, wall, steps, res.StepsPerSec/1e6)
		return res, nil
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
	}
	var fast armResult
	var legacy *armResult
	for t := 0; t < *trials; t++ {
		profiling := *cpuProfile != ""
		f, err := armTrial("fast", false)
		if err != nil {
			if profiling {
				pprof.StopCPUProfile()
			}
			return err
		}
		if t == 0 || f.WallSeconds < fast.WallSeconds {
			fast = f
		}
		if *compare {
			if profiling {
				pprof.StopCPUProfile() // the profile covers only the fast arm
			}
			l, err := armTrial("legacy", true)
			if profiling {
				*cpuProfile = "" // subsequent fast trials run unprofiled
			}
			if err != nil {
				return err
			}
			if legacy == nil || l.WallSeconds < legacy.WallSeconds {
				legacy = &l
			}
		}
	}
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	rep.Fast = fast
	if legacy != nil {
		rep.Legacy = legacy
		if fast.WallSeconds > 0 {
			rep.Speedup = legacy.WallSeconds / fast.WallSeconds
		}
	}

	if *gang {
		// The full-matrix sweep arms.  Same precompiled artifacts, same
		// emulations, same trial/minimum discipline as the arms above; the
		// two multi-config data paths interleave so ambient noise cannot
		// bias one side.
		sweepTrial := func(label string, gangArm bool) (armResult, error) {
			fmt.Fprintf(errw, "timing %s sweep arm (full matrix, %d kernels)...\n", label, len(kernels))
			runtime.GC()
			start := time.Now()
			steps, err := pre.RunSweepArm(gangArm, *parallel, preds, wins)
			wall := time.Since(start).Seconds()
			if err != nil {
				return armResult{}, fmt.Errorf("%s sweep arm: %w", label, err)
			}
			res := armResult{WallSeconds: wall, Steps: steps}
			if wall > 0 {
				res.StepsPerSec = float64(steps) / wall
			}
			fmt.Fprintf(errw, "%s sweep: %.2fs wall, %d steps, %.1f Msteps/s\n",
				label, wall, steps, res.StepsPerSec/1e6)
			return res, nil
		}
		var perCfg, gangRes *armResult
		for t := 0; t < *trials; t++ {
			p, err := sweepTrial("per-config", false)
			if err != nil {
				return err
			}
			if perCfg == nil || p.WallSeconds < perCfg.WallSeconds {
				perCfg = &p
			}
			g, err := sweepTrial("gang", true)
			if err != nil {
				return err
			}
			if gangRes == nil || g.WallSeconds < gangRes.WallSeconds {
				gangRes = &g
			}
		}
		rep.SweepPerConfig, rep.SweepGang = perCfg, gangRes
		if gangRes.WallSeconds > 0 {
			rep.GangSpeedup = perCfg.WallSeconds / gangRes.WallSeconds
		}
		rep.SweepPredictors = preds
		if len(preds) == 0 {
			rep.SweepPredictors = experiments.Predictors[:1]
		}
		rep.SweepWindows = wins
		if len(wins) == 0 {
			rep.SweepWindows = []int{0}
		}
		sm, err := pre.SweepMachines(preds, wins)
		if err != nil {
			return err
		}
		rep.SweepMachines = sm
	}

	rep.Machines = pre.Machines()
	if *breakdown {
		// Instrumented pass after the timed arms: the accounting hooks live
		// on a separate simulator path, so the timings above are untouched.
		fmt.Fprintf(errw, "measuring stall-cycle breakdowns (8-issue 1-branch)...\n")
		bd, err := pre.Breakdowns(*parallel)
		if err != nil {
			return fmt.Errorf("breakdown: %w", err)
		}
		rep.Breakdowns = bd
	}

	allocs, steps, kname, err := allocsPerStep(kernels)
	if err != nil {
		return err
	}
	rep.AllocsPerStep = allocs
	rep.AllocSteps = steps
	rep.AllocKernel = kname
	if *gang {
		gAllocs, err := gangAllocsPerStep(kernels)
		if err != nil {
			return err
		}
		rep.GangAllocsPerStep = gAllocs
		oAllocs, err := oooAllocsPerStep(kernels)
		if err != nil {
			return err
		}
		rep.OoOAllocsPerStep = oAllocs
	}

	js, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	js = append(js, '\n')
	if *outPath != "" {
		if err := os.WriteFile(*outPath, js, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(errw, "wrote %s\n", *outPath)
	}
	out.Write(js)

	if rep.AllocsPerStep > *maxAllocs {
		return fmt.Errorf("allocation regression: %.6f allocs/step on %s exceeds the %.6f gate",
			rep.AllocsPerStep, kname, *maxAllocs)
	}
	if rep.GangAllocsPerStep > *maxAllocs {
		return fmt.Errorf("allocation regression: %.6f allocs/step in the gang sweep loop on %s exceeds the %.6f gate",
			rep.GangAllocsPerStep, kname, *maxAllocs)
	}
	if rep.OoOAllocsPerStep > *maxAllocs {
		return fmt.Errorf("allocation regression: %.6f allocs/step in the out-of-order scheduler on %s exceeds the %.6f gate",
			rep.OoOAllocsPerStep, kname, *maxAllocs)
	}
	return nil
}

// parseWindows parses the -window flag's comma-separated size list.
func parseWindows(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var wins []int
	for _, f := range strings.Split(s, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("-window %q: %q is not an integer window size", s, f)
		}
		wins = append(wins, w)
	}
	return wins, nil
}

// allocsPerStep measures the fast interpreter's steady-state allocation
// rate: one full emulation of the first requested kernel's full-predication
// build, with the malloc counter read around Code.Run.  Setup allocations
// (result, memory image, pooled frames, profile-free run state) amortize
// over the kernel's millions of steps, so a non-trivially-small result
// means a per-step allocation crept into the hot loop.
func allocsPerStep(kernels []string) (allocs float64, steps int64, kernel string, err error) {
	kernel = kernels[0]
	k, err := bench.ByName(kernel)
	if err != nil {
		return 0, 0, kernel, err
	}
	c, err := core.Compile(k.Build(), core.FullPred, core.DefaultOptions(machine.Issue8Br1()))
	if err != nil {
		return 0, 0, kernel, fmt.Errorf("alloc gate: compile %s: %w", kernel, err)
	}
	code, err := emu.Decode(c.Prog)
	if err != nil {
		return 0, 0, kernel, fmt.Errorf("alloc gate: decode %s: %w", kernel, err)
	}
	s := sim.New(c.Prog, machine.Issue8Br1())
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := code.Run(emu.Options{Sink: s})
	runtime.ReadMemStats(&after)
	if err != nil {
		return 0, 0, kernel, fmt.Errorf("alloc gate: emulate %s: %w", kernel, err)
	}
	return float64(after.Mallocs-before.Mallocs) / float64(res.Steps), res.Steps, kernel, nil
}

// oooAllocsPerStep is the steady-state allocation gate over the
// out-of-order scheduler path: one emulation of the first requested
// kernel's full-predication build streamed into the window-32 OoO
// variant of the 8-issue machine.  The only allocation the scheduler can
// make after construction is an issue-slot ring doubling, which happens
// O(log horizon) times per run.
func oooAllocsPerStep(kernels []string) (float64, error) {
	kernel := kernels[0]
	k, err := bench.ByName(kernel)
	if err != nil {
		return 0, err
	}
	c, err := core.Compile(k.Build(), core.FullPred, core.DefaultOptions(machine.Issue8Br1()))
	if err != nil {
		return 0, fmt.Errorf("ooo alloc gate: compile %s: %w", kernel, err)
	}
	code, err := emu.Decode(c.Prog)
	if err != nil {
		return 0, fmt.Errorf("ooo alloc gate: decode %s: %w", kernel, err)
	}
	cfg := machine.Issue8Br1()
	cfg.OoO = true
	cfg.WindowSize = 32
	s := sim.NewOoO(c.Prog, cfg)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := code.Run(emu.Options{Sink: s})
	runtime.ReadMemStats(&after)
	if err != nil {
		return 0, fmt.Errorf("ooo alloc gate: emulate %s: %w", kernel, err)
	}
	return float64(after.Mallocs-before.Mallocs) / float64(res.Steps), nil
}

// gangAllocsPerStep is the same steady-state gate over the gang sweep
// loop: one emulation of the first requested kernel's full-predication
// build driving a sim.Gang with one lane per stock machine configuration
// (the exact hot loop of the gang sweep arm).
func gangAllocsPerStep(kernels []string) (float64, error) {
	kernel := kernels[0]
	k, err := bench.ByName(kernel)
	if err != nil {
		return 0, err
	}
	c, err := core.Compile(k.Build(), core.FullPred, core.DefaultOptions(machine.Issue8Br1()))
	if err != nil {
		return 0, fmt.Errorf("gang alloc gate: compile %s: %w", kernel, err)
	}
	code, err := emu.Decode(c.Prog)
	if err != nil {
		return 0, fmt.Errorf("gang alloc gate: decode %s: %w", kernel, err)
	}
	g := sim.NewGang(c.Prog, []machine.Config{
		machine.Issue1(), machine.Issue1Cache(), machine.Issue4Br1(),
		machine.Issue8Br1(), machine.Issue8Br2(), machine.Issue8Br1Cache(),
	})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := code.Run(emu.Options{Sink: g})
	runtime.ReadMemStats(&after)
	if err != nil {
		return 0, fmt.Errorf("gang alloc gate: emulate %s: %w", kernel, err)
	}
	return float64(after.Mallocs-before.Mallocs) / float64(res.Steps), nil
}

// cpuModel reports the host CPU model when /proc/cpuinfo exposes it
// (best-effort; empty elsewhere).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return ""
}
