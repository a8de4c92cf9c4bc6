package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestParseStatCPU(t *testing.T) {
	// utime=150 stime=50 ticks → 2000 ms; the command name holds spaces
	// and a parenthesis on purpose.
	line := "4242 (quarryd (x) y) S 1 4242 4242 0 -1 4194304 100 0 0 0 150 50 0 0 20 0 9 0 12345 1000 200 18446744073709551615"
	got, err := parseStatCPU(line)
	if err != nil || got != 2000 {
		t.Fatalf("parseStatCPU = %v, %v; want 2000", got, err)
	}
	if _, err := parseStatCPU("garbage"); err == nil {
		t.Error("malformed stat line accepted")
	}
}

func TestCanonicalHashIgnoresEncoderDifferences(t *testing.T) {
	a, err := canonicalHash([]byte(`{"columns":["a","b"],"rows":[["1","2"]]}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := canonicalHash([]byte(`{ "columns": ["a", "b"], "rows": [["1", "2"]] }`))
	if err != nil || a != b {
		t.Errorf("same content hashed differently (%v)", err)
	}
	c, _ := canonicalHash([]byte(`{"columns":["a","b"],"rows":[["1","3"]]}`))
	if a == c {
		t.Error("different rows hashed alike")
	}
	if _, err := canonicalHash([]byte(`{"error":"boom"}`)); err == nil {
		t.Error("an error body passed as an answer")
	}
}

func TestTallyCountsChecksAndSamples(t *testing.T) {
	var tl tally
	tl.add([]sample{{}, {err: errors.New("x")}})
	tl.check(nil)
	tl.check(errors.New("y"))
	if tl.attempted != 4 || tl.failed != 2 || len(tl.failures) != 2 {
		t.Errorf("tally = %+v", tl)
	}
}

// On a host whose cores are a quarter slower than the reference box's,
// rates and times come back to the reference box's.
func TestHostCorrection(t *testing.T) {
	probeMs := 1.25 * referenceProbeMs
	if got := refRate(80, probeMs); math.Abs(got-100) > 1e-9 {
		t.Errorf("refRate = %v, want 100", got)
	}
	if got := refTime(25, probeMs); math.Abs(got-20) > 1e-9 {
		t.Errorf("refTime = %v, want 20", got)
	}
	if got := probeHost(); got <= 0 {
		t.Errorf("probeHost = %v, want a positive time", got)
	}
}

type benchmarkJSON struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestQuickEndToEnd builds the binaries and runs every workload, traced
// and untraced, at smoke size: every metric BENCHMARK.json names must be
// emitted exactly once per workload, with its unit and a finite value,
// and no operation may fail.
func TestQuickEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the servers")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != 4 {
		t.Fatalf("BENCHMARK.json names %d workloads, want 4", len(spec.Workloads))
	}
	out := t.TempDir()
	for _, w := range spec.Workloads {
		for _, traced := range []string{"0", "1"} {
			args := append(append([]string(nil), spec.Command[1:]...),
				"--quick", "--out-dir", out, "--workload", w.Name, "--seed", "3", "--seconds", "0.3", "--trace", traced)
			cmd := exec.Command(spec.Command[0], args...)
			cmd.Dir = root
			var stderr strings.Builder
			cmd.Stderr = &stderr
			stdout, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s trace=%s: %v\n%s", w.Name, traced, err, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			var res map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not JSON: %v", w.Name, traced, err)
			}
			var keys []string
			for k := range res {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if got := strings.Join(keys, ","); got != "attempted,correct,failed,metrics" {
				t.Errorf("%s trace=%s: result keys = %s", w.Name, traced, got)
			}
			var line struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatal(err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d\n%s", w.Name, traced, line.Correct, line.Attempted, line.Failed, stderr.String())
			}
			want := spec.EndToEnd
			if traced == "1" {
				want = spec.PerLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics emitted, BENCHMARK.json names %d", w.Name, traced, len(line.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := line.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%s: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%s: metric %s has unit %q, want %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				case got.Value == nil || math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0):
					t.Errorf("%s trace=%s: metric %s is not finite", w.Name, traced, m.Name)
				}
			}
			// Printed by name exactly once.
			for _, m := range want {
				n := 0
				for _, l := range lines[:len(lines)-1] {
					f := strings.Fields(l)
					if len(f) >= 2 && f[0] == w.Name && f[1] == m.Name {
						n++
					}
				}
				if n != 1 {
					t.Errorf("%s trace=%s: metric %s printed %d times", w.Name, traced, m.Name, n)
				}
			}
		}
	}
}
