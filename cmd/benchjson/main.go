// Command benchjson converts `go test -bench` text output into a
// stable JSON document and gates it against regressions — the CI
// bench job's tripwire.
//
// Usage:
//
//	go test -bench . -benchtime 1x -count 5 -run '^$' ./... | tee bench.txt
//	benchjson -in bench.txt -sha $GITHUB_SHA -out BENCH_$GITHUB_SHA.json
//	benchjson -in bench.txt -prev BENCH_prev.json \
//	          -gate '^BenchmarkOLAP' -threshold 0.25
//
// Repeated runs of the same benchmark (`-count N`) accumulate as
// samples; ns_per_op reports their median, so a single noisy
// iteration cannot move the headline number.
//
// Two gates exist. The RELATIVE gate (-prev) compares this run
// against the previous run on the same runner — benchstat-style: it
// fails (exit 1) when a gated benchmark is missing, or its median is
// past threshold AND, when both runs carry ≥ minSamples samples, an
// exact Mann-Whitney U test agrees the slowdown is real rather than
// scheduler noise. The ABSOLUTE comparison (-baseline) against a
// checked-in reference is report-only: those numbers were measured on
// different hardware, so a mismatch is printed as a warning and never
// fails the run.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result. When the bench run used
// -count N, Samples holds every observation and NsPerOp their median.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Samples    []float64          `json:"samples,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// samplesOf returns the observations to compare: explicit samples
// when present, else the headline number (reports written before
// multi-sample support carry only ns_per_op).
func (b Benchmark) samplesOf() []float64 {
	if len(b.Samples) > 0 {
		return b.Samples
	}
	return []float64{b.NsPerOp}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Report is the JSON document.
type Report struct {
	SHA        string      `json:"sha,omitempty"`
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// benchLine matches `BenchmarkName-8   100   123456 ns/op  4.5 extra_metric`;
// the -N GOMAXPROCS suffix is stripped from the stored name.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([0-9.eE+]+) ns/op(.*)$`)

// parse reads `go test -bench` output. Repeated occurrences of a name
// (from -count N) accumulate as samples of one benchmark, with the
// headline NsPerOp kept at their median; iterations and extra metrics
// keep the last occurrence.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	byName := map[string]int{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.GOOS = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			rep.GOARCH = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("benchjson: bad iteration count in %q: %w", line, err)
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("benchjson: bad ns/op in %q: %w", line, err)
		}
		b := Benchmark{Name: m[1], Iterations: iters, NsPerOp: ns}
		if extra := strings.Fields(m[4]); len(extra) >= 2 {
			b.Metrics = map[string]float64{}
			for i := 0; i+1 < len(extra); i += 2 {
				v, err := strconv.ParseFloat(extra[i], 64)
				if err != nil {
					continue // allocation columns etc. stay numeric, but be lenient
				}
				b.Metrics[extra[i+1]] = v
			}
		}
		if i, dup := byName[b.Name]; dup {
			prev := rep.Benchmarks[i]
			b.Samples = append(prev.Samples, ns)
			b.NsPerOp = median(b.Samples)
			rep.Benchmarks[i] = b
			continue
		}
		b.Samples = []float64{ns}
		byName[b.Name] = len(rep.Benchmarks)
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}

// gate compares the current report against the baseline and returns
// one human-readable failure per regressed (or vanished) benchmark.
func gate(current, baseline *Report, match *regexp.Regexp, threshold float64) []string {
	cur := map[string]Benchmark{}
	for _, b := range current.Benchmarks {
		cur[b.Name] = b
	}
	var failures []string
	for _, base := range baseline.Benchmarks {
		if !match.MatchString(base.Name) {
			continue
		}
		got, ok := cur[base.Name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: present in baseline but missing from this run", base.Name))
			continue
		}
		limit := base.NsPerOp * (1 + threshold)
		if got.NsPerOp > limit {
			failures = append(failures, fmt.Sprintf(
				"%s: %.0f ns/op exceeds baseline %.0f ns/op by %.1f%% (limit +%.0f%%)",
				base.Name, got.NsPerOp, base.NsPerOp,
				100*(got.NsPerOp-base.NsPerOp)/base.NsPerOp, 100*threshold))
		}
	}
	return failures
}

// minSamples is the per-side sample count from which the relative
// gate demands statistical significance on top of the median
// threshold: with 3 vs 3 the exact test's smallest possible p-value
// is 1/C(6,3) = 0.05, so that is the first size at which a test CAN
// reach alpha — below it the median comparison stands alone.
const minSamples = 3

// alpha is the one-sided significance level of the relative gate.
const alpha = 0.05

// mannWhitneyP returns the exact one-sided p-value for "cur is
// stochastically slower than prev" under the Mann-Whitney U null (all
// interleavings equally likely). CI runs carry single-digit sample
// counts, so the exact distribution is cheap and the large-sample
// normal approximation — which is unsound at these sizes — is never
// needed. Ties contribute ½ to U and the no-ties null is used, which
// is the conservative direction.
func mannWhitneyP(prev, cur []float64) float64 {
	n, m := len(prev), len(cur)
	if n == 0 || m == 0 {
		return 1
	}
	var u float64
	for _, x := range prev {
		for _, y := range cur {
			switch {
			case y > x:
				u++
			case y == x:
				u += 0.5
			}
		}
	}
	// ways[j][v] = number of interleavings of i prev- and j
	// cur-samples with statistic v, rolled over i. Recurrence on the
	// smallest element: if it is a prev-sample, all j cur-samples
	// exceed it (adds j to the statistic, consumes one prev-sample);
	// if it is a cur-sample, it exceeds nothing (consumes one
	// cur-sample at the same i) — hence j ascending and v descending,
	// so reads hit exactly the (i-1, j) and (i, j-1) states.
	ways := make([][]float64, m+1)
	for j := range ways {
		ways[j] = make([]float64, n*m+1)
		ways[j][0] = 1 // N(0; 0, j): no prev-samples, statistic 0
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= m; j++ {
			row, left := ways[j], ways[j-1]
			for v := n * m; v >= 0; v-- {
				var w float64
				if v >= j {
					w = row[v-j]
				}
				row[v] = w + left[v]
			}
		}
	}
	var total, tail float64
	uMin := int(math.Ceil(u - 1e-9))
	for v, w := range ways[m] {
		total += w
		if v >= uMin {
			tail += w
		}
	}
	if total == 0 {
		return 1
	}
	return tail / total
}

// gateRelative compares this run against the previous run on the
// same runner. A gated benchmark fails when it vanished, or when its
// median slowed past the threshold and — once both runs carry enough
// samples for the test to be able to fire — the exact Mann-Whitney
// test confirms the shift (p ≤ alpha). The significance requirement
// is what lets the gate run with a tight threshold without tripping
// on scheduler noise.
func gateRelative(current, prev *Report, match *regexp.Regexp, threshold float64) []string {
	cur := map[string]Benchmark{}
	for _, b := range current.Benchmarks {
		cur[b.Name] = b
	}
	var failures []string
	for _, base := range prev.Benchmarks {
		if !match.MatchString(base.Name) {
			continue
		}
		got, ok := cur[base.Name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: present in previous run but missing from this one", base.Name))
			continue
		}
		prevS, curS := base.samplesOf(), got.samplesOf()
		medPrev, medCur := median(prevS), median(curS)
		if medCur <= medPrev*(1+threshold) {
			continue
		}
		if len(prevS) >= minSamples && len(curS) >= minSamples {
			if p := mannWhitneyP(prevS, curS); p > alpha {
				continue // past threshold but indistinguishable from noise
			}
		}
		failures = append(failures, fmt.Sprintf(
			"%s: median %.0f ns/op vs previous %.0f ns/op, +%.1f%% (limit +%.0f%%, %d vs %d samples)",
			base.Name, medCur, medPrev, 100*(medCur-medPrev)/medPrev, 100*threshold,
			len(curS), len(prevS)))
	}
	return failures
}

func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("benchjson: parsing %s: %w", path, err)
	}
	return &rep, nil
}

func run() error {
	in := flag.String("in", "", "bench output file (default stdin)")
	out := flag.String("out", "", "write the parsed report as JSON to this file")
	sha := flag.String("sha", "", "commit SHA recorded in the report")
	prevPath := flag.String("prev", "", "previous same-runner report JSON for the relative gate")
	baselinePath := flag.String("baseline", "", "absolute baseline JSON to compare against (report only)")
	gateExpr := flag.String("gate", "^Benchmark", "regexp of benchmarks the gates enforce")
	threshold := flag.Float64("threshold", 0.25, "allowed slowdown (0.25 = +25%)")
	flag.Parse()

	var src io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	rep, err := parse(src)
	if err != nil {
		return err
	}
	rep.SHA = *sha
	if len(rep.Benchmarks) == 0 {
		return fmt.Errorf("benchjson: no benchmark results in input")
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("benchjson: wrote %d benchmarks to %s\n", len(rep.Benchmarks), *out)
	}
	match, err := regexp.Compile(*gateExpr)
	if err != nil {
		return fmt.Errorf("benchjson: bad -gate regexp: %w", err)
	}
	if *prevPath != "" {
		prev, err := loadReport(*prevPath)
		if err != nil {
			return err
		}
		failures := gateRelative(rep, prev, match, *threshold)
		if len(failures) > 0 {
			for _, f := range failures {
				fmt.Fprintln(os.Stderr, "benchjson: REGRESSION:", f)
			}
			return fmt.Errorf("benchjson: %d benchmark(s) regressed vs the previous run beyond +%.0f%%", len(failures), 100**threshold)
		}
		fmt.Printf("benchjson: relative gate passed vs %s (%s, threshold +%.0f%%)\n", *prevPath, *gateExpr, 100**threshold)
	}
	if *baselinePath != "" {
		baseline, err := loadReport(*baselinePath)
		if err != nil {
			return err
		}
		// The checked-in baseline was measured on specific hardware; on
		// any other runner a mismatch is expected noise, so it is
		// reported without failing the run.
		failures := gate(rep, baseline, match, *threshold)
		if len(failures) == 0 {
			fmt.Printf("benchjson: absolute baseline matched (%s, threshold +%.0f%%)\n", *gateExpr, 100**threshold)
		}
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "benchjson: WARNING (absolute baseline, not gating):", f)
		}
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
