package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

func report(benches map[string]float64) *Report {
	rep := &Report{CPU: "testcpu"}
	for name, ns := range benches {
		rep.Benchmarks = append(rep.Benchmarks, Benchmark{Name: name, Package: "serena", NsPerOp: ns, Runs: 100})
	}
	return rep
}

func TestDiffFlagsRegressionsPastThreshold(t *testing.T) {
	keys := regexp.MustCompile(DefaultDiffKeys)
	base := report(map[string]float64{
		"BenchmarkInvoke/n=100":          1000,
		"BenchmarkInvokeBatch/batch":     500,
		"BenchmarkDurableTick/sensors=8": 2000,
		"BenchmarkRewritePushdown":       100, // not gated
	})
	cur := report(map[string]float64{
		"BenchmarkInvoke/n=100":          1100, // +10% → within threshold
		"BenchmarkInvokeBatch/batch":     800,  // +60% → regression
		"BenchmarkDurableTick/sensors=8": 2900, // +45% → regression
		"BenchmarkRewritePushdown":       1000, // +900% but not gated
	})
	regs := Diff(cur, base, keys, 20)
	if len(regs) != 2 {
		t.Fatalf("regressions = %+v, want 2", regs)
	}
	// Sorted worst-first.
	if regs[0].Name != "BenchmarkInvokeBatch/batch" || regs[1].Name != "BenchmarkDurableTick/sensors=8" {
		t.Fatalf("order = %s, %s", regs[0].Name, regs[1].Name)
	}
	if regs[0].DeltaPct < 59 || regs[0].DeltaPct > 61 {
		t.Fatalf("delta = %.1f, want ~60", regs[0].DeltaPct)
	}
}

func TestDiffGatesAggregation(t *testing.T) {
	keys := regexp.MustCompile(DefaultDiffKeys)
	base := report(map[string]float64{
		"BenchmarkAggregate/n=1000":           360_000,
		"BenchmarkDeltaAggregate/group=1024":  1_000,
		"BenchmarkDeltaAggregate/group=16384": 1_000,
		"BenchmarkOptimizerLatency":           100, // not gated
	})
	cur := report(map[string]float64{
		"BenchmarkAggregate/n=1000":           1_920_000, // the 5.3x sort regression
		"BenchmarkDeltaAggregate/group=1024":  1_100,     // +10% → within threshold
		"BenchmarkDeltaAggregate/group=16384": 16_000,    // O(group) per change
		"BenchmarkOptimizerLatency":           1_000,
	})
	regs := Diff(cur, base, keys, 20)
	if len(regs) != 2 {
		t.Fatalf("regressions = %+v, want 2", regs)
	}
	if regs[0].Name != "BenchmarkDeltaAggregate/group=16384" || regs[1].Name != "BenchmarkAggregate/n=1000" {
		t.Fatalf("order = %s, %s", regs[0].Name, regs[1].Name)
	}
}

// The operators and the window sweep run on the tuple-identity paths
// (set building, join buckets, delta operator state), so a regression
// there fails the gate too.
func TestDiffGatesOperatorsAndWindowSweep(t *testing.T) {
	keys := regexp.MustCompile(DefaultDiffKeys)
	base := report(map[string]float64{
		"BenchmarkOperators/join/n=10000": 20_000_000,
		"BenchmarkOperators/union/n=1000": 500_000,
		"BenchmarkWindowSweep/w=1000":     2_000_000,
		"BenchmarkRewritePushdown":        50_000, // not gated
	})
	cur := report(map[string]float64{
		"BenchmarkOperators/join/n=10000": 30_000_000, // +50% → regression
		"BenchmarkOperators/union/n=1000": 550_000,    // +10% → within threshold
		"BenchmarkWindowSweep/w=1000":     5_000_000,  // +150% → regression
		"BenchmarkRewritePushdown":        500_000,
	})
	regs := Diff(cur, base, keys, 20)
	if len(regs) != 2 {
		t.Fatalf("regressions = %+v, want 2", regs)
	}
	if regs[0].Name != "BenchmarkWindowSweep/w=1000" || regs[1].Name != "BenchmarkOperators/join/n=10000" {
		t.Fatalf("order = %s, %s", regs[0].Name, regs[1].Name)
	}
}

func TestDiffGatesCheckpointSnapshotAndTupleIdentity(t *testing.T) {
	keys := regexp.MustCompile(DefaultDiffKeys)
	base := report(map[string]float64{
		"BenchmarkCheckpointSnapshot/history=100k": 12_000,
		"BenchmarkCheckpointSnapshot/history=10k":  12_000,
		"BenchmarkTupleIdentity/put/n=16k":         1_000_000,
		"BenchmarkTupleIdentity/get/n=1k":          30_000,
		"BenchmarkOptimizerLatency":                100, // not gated
	})
	cur := report(map[string]float64{
		"BenchmarkCheckpointSnapshot/history=100k": 6_000_000, // the full history again → regression
		"BenchmarkCheckpointSnapshot/history=10k":  13_000,    // +8% → within threshold
		"BenchmarkTupleIdentity/put/n=16k":         1_500_000, // +50% → regression
		"BenchmarkTupleIdentity/get/n=1k":          31_000,    // +3% → within threshold
		"BenchmarkOptimizerLatency":                1_000,
	})
	regs := Diff(cur, base, keys, 20)
	if len(regs) != 2 {
		t.Fatalf("regressions = %+v, want 2", regs)
	}
	if regs[0].Name != "BenchmarkCheckpointSnapshot/history=100k" || regs[1].Name != "BenchmarkTupleIdentity/put/n=16k" {
		t.Fatalf("order = %s, %s", regs[0].Name, regs[1].Name)
	}
}

func TestDiffIgnoresUnmatchedBenchmarks(t *testing.T) {
	keys := regexp.MustCompile(DefaultDiffKeys)
	base := report(map[string]float64{"BenchmarkInvoke/old": 100})
	cur := report(map[string]float64{"BenchmarkInvoke/new": 100000})
	if regs := Diff(cur, base, keys, 20); len(regs) != 0 {
		t.Fatalf("benchmark without a baseline flagged: %+v", regs)
	}
}

func writeReport(t *testing.T, path string, rep *Report) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := json.NewEncoder(f).Encode(rep); err != nil {
		t.Fatal(err)
	}
}

func TestRunDiffGate(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.json")
	curPath := filepath.Join(dir, "cur.json")
	writeReport(t, basePath, report(map[string]float64{"BenchmarkInvoke/n=1": 1000}))

	cur := report(map[string]float64{"BenchmarkInvoke/n=1": 1500})
	cur.Parent = basePath
	writeReport(t, curPath, cur)
	if code := runDiff(curPath, "", DefaultDiffKeys, 20); code != 1 {
		t.Fatalf("50%% regression passed the gate (exit %d)", code)
	}
	if code := runDiff(curPath, "", DefaultDiffKeys, 60); code != 0 {
		t.Fatalf("within-threshold diff failed the gate (exit %d)", code)
	}

	// Missing baseline: warn and pass.
	cur.Parent = filepath.Join(dir, "nonexistent.json")
	writeReport(t, curPath, cur)
	if code := runDiff(curPath, "", DefaultDiffKeys, 20); code != 0 {
		t.Fatalf("missing baseline failed the gate (exit %d)", code)
	}

	// No parent recorded at all: warn and pass.
	cur.Parent = ""
	writeReport(t, curPath, cur)
	if code := runDiff(curPath, "", DefaultDiffKeys, 20); code != 0 {
		t.Fatalf("parentless report failed the gate (exit %d)", code)
	}

	// Cross-machine baseline: warn and pass.
	other := report(map[string]float64{"BenchmarkInvoke/n=1": 1})
	other.CPU = "another cpu"
	writeReport(t, basePath, other)
	if code := runDiff(curPath, basePath, DefaultDiffKeys, 20); code != 0 {
		t.Fatalf("cross-machine diff failed the gate (exit %d)", code)
	}
}
