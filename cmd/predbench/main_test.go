package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReportSchema runs the harness on one kernel (fast arm only) and
// checks the JSON artifact.
func TestReportSchema(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	var sb, eb strings.Builder
	if err := run([]string{"-kernels", "wc", "-compare=false", "-out", out}, &sb, &eb); err != nil {
		t.Fatalf("predbench: %v\nstderr:\n%s", err, eb.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if len(rep.Kernels) != 1 || rep.Kernels[0] != "wc" {
		t.Errorf("kernels = %v, want [wc]", rep.Kernels)
	}
	if rep.Fast.Steps <= 0 || rep.Fast.WallSeconds <= 0 || rep.Fast.StepsPerSec <= 0 {
		t.Errorf("fast arm not measured: %+v", rep.Fast)
	}
	if rep.Legacy != nil {
		t.Errorf("legacy arm present despite -compare=false: %+v", rep.Legacy)
	}
	if rep.AllocSteps <= 0 {
		t.Errorf("alloc gate did not run: %+v", rep)
	}
	if rep.AllocsPerStep > 0.001 {
		t.Errorf("allocs/step = %f, hot loop is allocating", rep.AllocsPerStep)
	}
	if rep.GoVersion == "" || rep.GOARCH == "" {
		t.Errorf("missing host fields: %+v", rep)
	}
	// Stdout carries the same JSON for piping.
	if !strings.Contains(sb.String(), "\"steps_per_sec\"") {
		t.Error("report JSON not echoed to stdout")
	}
}

// TestCompareMeasuresBothArms runs fast and legacy on one kernel and
// checks the speedup field is populated.
func TestCompareMeasuresBothArms(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	var sb, eb strings.Builder
	if err := run([]string{"-kernels", "wc", "-out", out}, &sb, &eb); err != nil {
		t.Fatalf("predbench: %v\nstderr:\n%s", err, eb.String())
	}
	data, _ := os.ReadFile(out)
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Legacy == nil || rep.Legacy.Steps <= 0 {
		t.Fatalf("legacy arm missing: %+v", rep.Legacy)
	}
	if rep.Legacy.Steps != rep.Fast.Steps {
		t.Errorf("arms emulated different work: fast %d steps, legacy %d", rep.Fast.Steps, rep.Legacy.Steps)
	}
	if rep.Speedup <= 0 {
		t.Errorf("speedup not computed: %f", rep.Speedup)
	}
}

// TestAllocGateFails: an impossible allocation budget turns into a
// non-zero exit (the CI regression gate).
func TestAllocGateFails(t *testing.T) {
	var sb, eb strings.Builder
	err := run([]string{"-kernels", "wc", "-compare=false", "-out", "", "-max-allocs-per-step", "0"}, &sb, &eb)
	if err == nil || !strings.Contains(err.Error(), "allocation regression") {
		t.Errorf("error = %v, want allocation regression", err)
	}
}

// TestBadKernelErrors: unknown kernels fail cleanly.
func TestBadKernelErrors(t *testing.T) {
	var sb, eb strings.Builder
	if err := run([]string{"-kernels", "no-such-kernel", "-compare=false", "-out", ""}, &sb, &eb); err == nil {
		t.Error("unknown kernel accepted")
	}
}

// TestMachinesAndBreakdowns: the report always names every simulated
// machine configuration, and -breakdown attaches each model's verified
// aggregate cycle decomposition.
func TestMachinesAndBreakdowns(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	var sb, eb strings.Builder
	if err := run([]string{"-kernels", "wc", "-compare=false", "-trials", "1",
		"-breakdown", "-out", out}, &sb, &eb); err != nil {
		t.Fatalf("predbench: %v\nstderr:\n%s", err, eb.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Machines []struct {
			Name       string `json:"name"`
			IssueWidth int    `json:"issue_width"`
		} `json:"machines"`
		Breakdowns map[string]struct {
			Breakdown map[string]int64 `json:"breakdown"`
			Mix       []struct {
				Class   string `json:"class"`
				Fetched int64  `json:"fetched"`
			} `json:"mix"`
		} `json:"breakdowns"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, m := range rep.Machines {
		names[m.Name] = true
		if m.IssueWidth <= 0 {
			t.Errorf("machine %s has issue width %d", m.Name, m.IssueWidth)
		}
	}
	for _, want := range []string{"issue1", "issue1-64k", "issue4-br1", "issue8-br1", "issue8-br2", "issue8-br1-64k"} {
		if !names[want] {
			t.Errorf("machine %s missing from report (have %v)", want, names)
		}
	}
	if len(rep.Breakdowns) != 3 {
		t.Fatalf("%d model breakdowns, want 3", len(rep.Breakdowns))
	}
	for model, a := range rep.Breakdowns {
		var sum int64
		for cause, v := range a.Breakdown {
			if cause != "total" {
				sum += v
			}
		}
		if sum == 0 || sum != a.Breakdown["total"] {
			t.Errorf("%s: causes sum to %d, total says %d", model, sum, a.Breakdown["total"])
		}
		if len(a.Mix) == 0 {
			t.Errorf("%s: empty instruction mix", model)
		}
	}
}

// TestNoBreakdownByDefault: without the flag the report omits the
// breakdown section (the instrumented pass never runs).
func TestNoBreakdownByDefault(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	var sb, eb strings.Builder
	if err := run([]string{"-kernels", "cmp", "-compare=false", "-trials", "1", "-out", out}, &sb, &eb); err != nil {
		t.Fatalf("predbench: %v", err)
	}
	data, _ := os.ReadFile(out)
	if strings.Contains(string(data), "\"breakdowns\"") {
		t.Error("breakdowns present without -breakdown")
	}
	if !strings.Contains(string(data), "\"machines\"") {
		t.Error("machine metadata missing from default report")
	}
}

// TestGangSweepFields: the default run times the full-matrix sweep on
// both multi-config data paths and reports the gang arm's speedup over
// the fast per-config arm.  The per-config arm emulates each artifact
// once per machine configuration (the pre-gang Measure pattern), so its
// step count is exactly 6x the gang arm's single emulation.
func TestGangSweepFields(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	var sb, eb strings.Builder
	if err := run([]string{"-kernels", "wc", "-compare=false", "-trials", "1", "-out", out}, &sb, &eb); err != nil {
		t.Fatalf("predbench: %v\nstderr:\n%s", err, eb.String())
	}
	data, _ := os.ReadFile(out)
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.SweepGang == nil || rep.SweepPerConfig == nil {
		t.Fatalf("sweep arms missing: gang %+v, per-config %+v", rep.SweepGang, rep.SweepPerConfig)
	}
	if rep.SweepGang.Steps <= 0 || rep.SweepPerConfig.Steps != 6*rep.SweepGang.Steps {
		t.Errorf("sweep steps: gang %d, per-config %d (want exactly 6x gang)",
			rep.SweepGang.Steps, rep.SweepPerConfig.Steps)
	}
	if rep.GangSpeedup <= 0 {
		t.Errorf("gang speedup not computed: %f", rep.GangSpeedup)
	}
	if len(rep.SweepPredictors) != 1 || rep.SweepPredictors[0] != "btb" {
		t.Errorf("sweep predictors = %v, want [btb]", rep.SweepPredictors)
	}
	if len(rep.SweepMachines) != 6 {
		t.Errorf("%d sweep machines, want 6", len(rep.SweepMachines))
	}
	if rep.GangAllocsPerStep > 0.001 {
		t.Errorf("gang allocs/step = %f, gang hot loop is allocating", rep.GangAllocsPerStep)
	}
}

// TestGangFalseOmitsSweep: -gang=false skips the sweep arms entirely,
// and -predictor (a sweep-arm axis) cannot be combined with it.
func TestGangFalseOmitsSweep(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	var sb, eb strings.Builder
	if err := run([]string{"-kernels", "wc", "-compare=false", "-trials", "1", "-gang=false", "-out", out}, &sb, &eb); err != nil {
		t.Fatalf("predbench: %v", err)
	}
	data, _ := os.ReadFile(out)
	if strings.Contains(string(data), "\"sweep_gang\"") {
		t.Error("sweep arm present despite -gang=false")
	}
	err := run([]string{"-kernels", "wc", "-gang=false", "-predictor", "gshare", "-out", ""}, &sb, &eb)
	if err == nil || !strings.Contains(err.Error(), "cannot be combined") {
		t.Errorf("error = %v, want -predictor/-gang=false conflict", err)
	}
}

// TestSweepPredictorAxis: -predictor crosses the sweep matrix (12
// machines for btb,gshare) and unknown predictors fail before anything
// compiles.
func TestSweepPredictorAxis(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	var sb, eb strings.Builder
	if err := run([]string{"-kernels", "wc", "-compare=false", "-trials", "1",
		"-predictor", "btb,gshare", "-out", out}, &sb, &eb); err != nil {
		t.Fatalf("predbench: %v\nstderr:\n%s", err, eb.String())
	}
	data, _ := os.ReadFile(out)
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.SweepMachines) != 12 {
		t.Errorf("%d sweep machines, want 12", len(rep.SweepMachines))
	}
	if len(rep.SweepPredictors) != 2 {
		t.Errorf("sweep predictors = %v, want [btb gshare]", rep.SweepPredictors)
	}
	err := run([]string{"-kernels", "wc", "-predictor", "ttage", "-out", ""}, &sb, &eb)
	if err == nil || !strings.Contains(err.Error(), "unknown predictor") {
		t.Errorf("error = %v, want unknown predictor", err)
	}
}

// TestBareRunWritesNoFile: without -out the report goes to stdout only,
// so a bare run in a checkout never overwrites a committed report.
func TestBareRunWritesNoFile(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var sb, eb strings.Builder
	if err := run([]string{"-kernels", "wc", "-compare=false", "-trials", "1", "-gang=false"}, &sb, &eb); err != nil {
		t.Fatalf("predbench: %v\nstderr:\n%s", err, eb.String())
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("bare run wrote %d file(s) into the working directory, first %q", len(entries), entries[0].Name())
	}
	if strings.Contains(eb.String(), "wrote ") {
		t.Errorf("bare run reports writing a file:\n%s", eb.String())
	}
	var rep report
	if err := json.Unmarshal([]byte(sb.String()), &rep); err != nil {
		t.Fatalf("stdout is not the JSON report: %v", err)
	}
	if rep.Fast.Steps <= 0 {
		t.Errorf("fast arm not measured: %+v", rep.Fast)
	}
}
