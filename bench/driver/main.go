// Command driver is the Quarry benchmark's end-to-end half: it boots
// the real quarryd / quarryrouter binaries, drives them over loopback
// HTTP in a closed loop, checks every answer, and reports the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1,
// which also runs bench/layers). It imports nothing of the repository
// but the root quarry package (for requirement XML), so no internal
// refactor can silence it. Linux only: CPU and memory come from /proc.
//
// With --workload it performs one run and prints the result as one
// JSON object on the last line of stdout; without, it runs every
// workload untraced and traced.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"quarry/bench/workload"
)

func main() {
	var cfg config
	e := env{binDir: "bench/.build/bin"} // where run.sh builds to
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics (traced run)")
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (default: all, untraced and traced)")
	flag.Int64Var(&cfg.seed, "seed", 42, "seed of the request sequence")
	flag.Float64Var(&cfg.seconds, "seconds", 16, "length of the measured window")
	flag.BoolVar(&cfg.quick, "quick", false, "smoke mode: scale factor 5, one set-up")
	flag.StringVar(&e.outDir, "out-dir", "bench/out", "directory for logs, results, traces and server data")
	flag.Parse()
	cfg.trace = *traceFlag != 0
	if flag.NArg() > 0 || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: driver [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick]")
		os.Exit(2)
	}
	// Servers die with the driver (Pdeathsig); on a signal, unwind
	// through the deferred stops instead.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	// One run must end within 180 s; a hung server must not hold the
	// driver longer.
	runs := len(workloadsOf(cfg)) * len(tracesOf(cfg))
	ctx, cancelTimeout := context.WithTimeout(ctx, time.Duration(runs)*170*time.Second)
	defer cancelTimeout()

	var results []*result
	for _, w := range workloadsOf(cfg) {
		for _, traced := range tracesOf(cfg) {
			one := cfg
			one.workload, one.trace = w, traced
			res, err := runWorkload(ctx, e, one)
			fatalIf(err)
			printMetrics(res)
			results = append(results, res)
		}
	}
	fatalIf(writeResults(filepath.Join(e.outDir, "results.json"), results))
	failed := false
	for _, res := range results {
		for _, msg := range res.Failures {
			fmt.Fprintf(os.Stderr, "bench: %s: FAILED: %s\n", res.Workload, msg)
		}
		failed = failed || !res.Correct
	}
	if cfg.workload != "" {
		// The contract line: last line of stdout.
		res := results[0]
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics})
		fatalIf(err)
		fmt.Println(string(line))
	}
	if failed {
		os.Exit(1)
	}
}

// fatalIf ends the command on an error that is not a measured
// failure: nothing is reported. Fleets are stopped by then (runWorkload
// stops its own on every path).
func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func workloadsOf(cfg config) []string {
	if cfg.workload != "" {
		return []string{cfg.workload}
	}
	return workload.Names
}

func tracesOf(cfg config) []bool {
	if cfg.workload != "" {
		return []bool{cfg.trace}
	}
	return []bool{false, true}
}

// printMetrics prints every metric of a run by name with its unit.
func printMetrics(res *result) {
	kind := "end-to-end"
	if res.Trace {
		kind = "per-layer"
	}
	fmt.Printf("# %s seed=%d %s: attempted=%d failed=%d samples=%d rounds=%d host_speed=%.3f\n",
		res.Workload, res.Seed, kind, res.Attempted, res.Failed, res.Samples, len(res.RoundRates), res.HostSpeed)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-18s %-46s %14.4f %s\n", res.Workload, name, m.Value, m.Unit)
	}
}

func writeResults(path string, results []*result) error {
	b, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
