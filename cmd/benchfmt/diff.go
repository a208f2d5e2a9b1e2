package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
)

// DefaultDiffKeys selects the benchmarks the regression gate watches: the
// invocation pipeline, the durable tick path, the incremental-vs-naive
// evaluation sweeps, both aggregation paths (one-shot and per-change
// delta), the one-shot operators, tuple identity and the checkpoint
// snapshot — the surfaces the batching, delta-evaluation, exact-sum,
// tuple-identity and bounded-stream work optimize and must not regress.
const DefaultDiffKeys = `^BenchmarkInvoke|^BenchmarkDurableTick|^BenchmarkDeltaInvocation|^BenchmarkAggregate|^BenchmarkDeltaAggregate|^BenchmarkOperators|^BenchmarkWindowSweep|^BenchmarkCheckpointSnapshot|^BenchmarkTupleIdentity`

// Regression is one gated benchmark whose ns/op grew past the threshold.
type Regression struct {
	Name     string
	BaseNs   float64
	CurNs    float64
	DeltaPct float64
}

// Diff compares cur against base and returns the gated benchmarks (Name
// matching keys) whose ns/op regressed by more than thresholdPct percent.
// Benchmarks present in only one report are ignored: a renamed or new
// benchmark has no baseline to regress from.
func Diff(cur, base *Report, keys *regexp.Regexp, thresholdPct float64) []Regression {
	baseNs := make(map[string]float64, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseNs[b.Package+"|"+b.Name] = b.NsPerOp
	}
	var regs []Regression
	for _, b := range cur.Benchmarks {
		if !keys.MatchString(b.Name) {
			continue
		}
		bn, ok := baseNs[b.Package+"|"+b.Name]
		if !ok || bn <= 0 {
			continue
		}
		pct := (b.NsPerOp - bn) / bn * 100
		if pct > thresholdPct {
			regs = append(regs, Regression{Name: b.Name, BaseNs: bn, CurNs: b.NsPerOp, DeltaPct: pct})
		}
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].DeltaPct > regs[j].DeltaPct })
	return regs
}

func readReport(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rep Report
	if err := json.NewDecoder(f).Decode(&rep); err != nil {
		return nil, fmt.Errorf("benchfmt: %s: %w", path, err)
	}
	return &rep, nil
}

// runDiff implements `benchfmt -diff <report>`: load the report, find its
// baseline (-against, or the report's recorded parent), and exit non-zero
// when a gated benchmark regressed past the threshold. Missing baselines
// and cross-machine comparisons warn and pass — a gate that cannot compare
// must not fail the build on noise.
func runDiff(reportPath, against, keysPat string, thresholdPct float64) int {
	keys, err := regexp.Compile(keysPat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchfmt: bad -keys pattern: %v\n", err)
		return 1
	}
	cur, err := readReport(reportPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if against == "" {
		against = cur.Parent
	}
	if against == "" {
		fmt.Fprintf(os.Stderr, "benchfmt: %s records no parent report and no -against was given; nothing to diff\n", reportPath)
		return 0
	}
	base, err := readReport(against)
	if err != nil {
		if os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "benchfmt: baseline %s not found; skipping regression check\n", against)
			return 0
		}
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if base.CPU != "" && cur.CPU != "" && base.CPU != cur.CPU {
		fmt.Fprintf(os.Stderr, "benchfmt: baseline measured on %q, this report on %q; cross-machine ns/op are not comparable, skipping\n",
			base.CPU, cur.CPU)
		return 0
	}
	checked := 0
	for _, b := range cur.Benchmarks {
		if keys.MatchString(b.Name) {
			checked++
		}
	}
	regs := Diff(cur, base, keys, thresholdPct)
	if len(regs) == 0 {
		fmt.Fprintf(os.Stderr, "benchfmt: %d gated benchmark(s) within %.0f%% of %s\n", checked, thresholdPct, against)
		return 0
	}
	fmt.Fprintf(os.Stderr, "benchfmt: %d regression(s) against %s (threshold %.0f%%):\n", len(regs), against, thresholdPct)
	for _, r := range regs {
		fmt.Fprintf(os.Stderr, "  %-50s %12.0f → %12.0f ns/op  (+%.1f%%)\n", r.Name, r.BaseNs, r.CurNs, r.DeltaPct)
	}
	return 1
}
