package main

import (
	"regexp"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: quarry
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkOLAPQuery_StarFlow-8     	       1	    253000 ns/op
BenchmarkOLAPQuery_FastPath-8     	       1	    113000 ns/op
BenchmarkOLAPQuery_Materialized-8 	       1	     16000 ns/op
BenchmarkOLAPDice-8               	       1	    131000 ns/op
BenchmarkFig3_IntegrationAndDeployment-8 	       1	   1795000 ns/op	         4.000 reuse_ratio
PASS
ok  	quarry	12.3s
?   	quarry/cmd/quarryd	[no test files]
`

func parseSample(t *testing.T, text string) *Report {
	t.Helper()
	rep, err := parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestParseBenchOutput(t *testing.T) {
	rep := parseSample(t, sampleOutput)
	if rep.GOOS != "linux" || rep.GOARCH != "amd64" || !strings.Contains(rep.CPU, "Xeon") {
		t.Errorf("environment = %q/%q/%q", rep.GOOS, rep.GOARCH, rep.CPU)
	}
	if len(rep.Benchmarks) != 5 {
		t.Fatalf("parsed %d benchmarks, want 5", len(rep.Benchmarks))
	}
	fast := rep.Benchmarks[1]
	if fast.Name != "BenchmarkOLAPQuery_FastPath" || fast.Iterations != 1 || fast.NsPerOp != 113000 {
		t.Errorf("fast path parsed as %+v", fast)
	}
	fig3 := rep.Benchmarks[4]
	if fig3.Metrics["reuse_ratio"] != 4 {
		t.Errorf("extra metric parsed as %+v", fig3.Metrics)
	}
}

// TestParseBenchmem: the -benchmem columns are metrics like any other
// extra column, so B/op and allocs/op are recorded in every report; the
// gate reads ns/op only.
func TestParseBenchmem(t *testing.T) {
	rep := parseSample(t, `BenchmarkEngineExec_Disk_SF100-2   	      10	  46360450 ns/op	52202806 B/op	  190215 allocs/op
BenchmarkEngineExec_Disk_SF100-2   	      10	  45918615 ns/op	52314486 B/op	  190223 allocs/op
`)
	if len(rep.Benchmarks) != 1 {
		t.Fatalf("parsed %d benchmarks, want 1", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.Metrics["B/op"] != 52314486 || b.Metrics["allocs/op"] != 190223 {
		t.Fatalf("metrics %v, want the last sample's B/op and allocs/op", b.Metrics)
	}
	if b.NsPerOp != (46360450+45918615)/2.0 || len(b.Samples) != 2 {
		t.Fatalf("ns/op %v over samples %v", b.NsPerOp, b.Samples)
	}
}

func TestGatePassesWithinThreshold(t *testing.T) {
	base := parseSample(t, sampleOutput)
	cur := parseSample(t, strings.ReplaceAll(sampleOutput, "113000 ns/op", "130000 ns/op")) // +15%
	match := regexp.MustCompile(`^BenchmarkOLAP`)
	if failures := gate(cur, base, match, 0.25); len(failures) != 0 {
		t.Fatalf("gate tripped within threshold: %v", failures)
	}
}

// TestGateTripsOnInjectedSlowdown is the acceptance check: a 2× slower
// fast path must trip the 25% gate.
func TestGateTripsOnInjectedSlowdown(t *testing.T) {
	base := parseSample(t, sampleOutput)
	cur := parseSample(t, strings.ReplaceAll(sampleOutput, "113000 ns/op", "226000 ns/op")) // 2×
	match := regexp.MustCompile(`^BenchmarkOLAP`)
	failures := gate(cur, base, match, 0.25)
	if len(failures) != 1 || !strings.Contains(failures[0], "BenchmarkOLAPQuery_FastPath") {
		t.Fatalf("gate failures = %v, want exactly the fast-path regression", failures)
	}
	// Benchmarks outside the gate regexp never trip it.
	slowFig := parseSample(t, strings.ReplaceAll(sampleOutput, "1795000 ns/op", "9795000 ns/op"))
	if failures := gate(slowFig, base, match, 0.25); len(failures) != 0 {
		t.Fatalf("ungated benchmark tripped the gate: %v", failures)
	}
}

// TestParseMultiSample: -count N re-runs of a benchmark accumulate
// as samples of ONE entry whose headline number is their median, so a
// single outlier iteration cannot move it.
func TestParseMultiSample(t *testing.T) {
	rep := parseSample(t, `
BenchmarkOLAPDice-8	1	100000 ns/op
BenchmarkOLAPDice-8	1	120000 ns/op
BenchmarkOLAPDice-8	1	900000 ns/op
BenchmarkOLAPDice-8	1	110000 ns/op
BenchmarkOLAPDice-8	1	105000 ns/op
`)
	if len(rep.Benchmarks) != 1 {
		t.Fatalf("parsed %d benchmarks, want 1 accumulated", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if len(b.Samples) != 5 {
		t.Fatalf("samples = %v, want 5", b.Samples)
	}
	if b.NsPerOp != 110000 {
		t.Fatalf("NsPerOp = %v, want the median 110000 (outlier-resistant)", b.NsPerOp)
	}
}

// TestMannWhitneyExact pins the exact test on hand-checkable cases.
func TestMannWhitneyExact(t *testing.T) {
	// Perfect separation, 3 vs 3: U = 9, the single most extreme of
	// C(6,3) = 20 interleavings → p = 1/20.
	p := mannWhitneyP([]float64{1, 2, 3}, []float64{10, 11, 12})
	if diff := p - 0.05; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("separated 3v3: p = %v, want 0.05", p)
	}
	// Reversed direction: cur entirely FASTER → p = 1 (one-sided).
	if p := mannWhitneyP([]float64{10, 11, 12}, []float64{1, 2, 3}); p != 1 {
		t.Fatalf("faster cur: p = %v, want 1", p)
	}
	// Interleaved samples: nowhere near significant.
	if p := mannWhitneyP([]float64{1, 3, 5}, []float64{2, 4, 6}); p <= 0.05 {
		t.Fatalf("interleaved: p = %v, want > 0.05", p)
	}
}

func relativeReports(t *testing.T, prev, cur string) (*Report, *Report) {
	t.Helper()
	return parseSample(t, cur), parseSample(t, prev)
}

// TestRelativeGateTripsOnRealRegression: a consistent 2× slowdown
// across samples must fail the relative gate.
func TestRelativeGateTripsOnRealRegression(t *testing.T) {
	cur, prev := relativeReports(t, `
BenchmarkOLAPDice-8	1	100000 ns/op
BenchmarkOLAPDice-8	1	101000 ns/op
BenchmarkOLAPDice-8	1	102000 ns/op
`, `
BenchmarkOLAPDice-8	1	200000 ns/op
BenchmarkOLAPDice-8	1	201000 ns/op
BenchmarkOLAPDice-8	1	202000 ns/op
`)
	failures := gateRelative(cur, prev, regexp.MustCompile(`^BenchmarkOLAP`), 0.25)
	if len(failures) != 1 || !strings.Contains(failures[0], "BenchmarkOLAPDice") {
		t.Fatalf("failures = %v, want the dice regression", failures)
	}
}

// TestRelativeGateToleratesNoise: the median is past the threshold
// but the sample distributions overlap heavily — the significance
// requirement keeps the gate quiet instead of flaking.
func TestRelativeGateToleratesNoise(t *testing.T) {
	cur, prev := relativeReports(t, `
BenchmarkOLAPDice-8	1	100000 ns/op
BenchmarkOLAPDice-8	1	300000 ns/op
BenchmarkOLAPDice-8	1	90000 ns/op
BenchmarkOLAPDice-8	1	310000 ns/op
`, `
BenchmarkOLAPDice-8	1	290000 ns/op
BenchmarkOLAPDice-8	1	95000 ns/op
BenchmarkOLAPDice-8	1	305000 ns/op
BenchmarkOLAPDice-8	1	280000 ns/op
`)
	if failures := gateRelative(cur, prev, regexp.MustCompile(`^BenchmarkOLAP`), 0.25); len(failures) != 0 {
		t.Fatalf("noisy overlap tripped the gate: %v", failures)
	}
}

// TestRelativeGateSingleSampleFallsBackToMedian: without enough
// samples for significance, the median threshold alone decides (old
// reports carry only ns_per_op).
func TestRelativeGateSingleSampleFallsBackToMedian(t *testing.T) {
	cur, prev := relativeReports(t,
		"BenchmarkOLAPDice-8	1	100000 ns/op\n",
		"BenchmarkOLAPDice-8	1	200000 ns/op\n")
	if failures := gateRelative(cur, prev, regexp.MustCompile(`^BenchmarkOLAP`), 0.25); len(failures) != 1 {
		t.Fatalf("single-sample 2× slowdown not caught: %v", failures)
	}
}

func TestRelativeGateFailsOnMissing(t *testing.T) {
	cur, prev := relativeReports(t,
		"BenchmarkOLAPDice-8	1	100000 ns/op\n",
		"BenchmarkOther-8	1	100000 ns/op\n")
	failures := gateRelative(cur, prev, regexp.MustCompile(`^BenchmarkOLAP`), 0.25)
	if len(failures) != 1 || !strings.Contains(failures[0], "missing") {
		t.Fatalf("failures = %v, want a missing-benchmark failure", failures)
	}
}

func TestGateFailsOnMissingBenchmark(t *testing.T) {
	base := parseSample(t, sampleOutput)
	var lines []string
	for _, l := range strings.Split(sampleOutput, "\n") {
		if !strings.Contains(l, "BenchmarkOLAPDice") {
			lines = append(lines, l)
		}
	}
	cur := parseSample(t, strings.Join(lines, "\n"))
	match := regexp.MustCompile(`^BenchmarkOLAP`)
	failures := gate(cur, base, match, 0.25)
	if len(failures) != 1 || !strings.Contains(failures[0], "missing") {
		t.Fatalf("gate failures = %v, want a missing-benchmark failure", failures)
	}
}
