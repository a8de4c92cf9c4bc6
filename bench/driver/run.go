package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"quarry/bench/trace"
	"quarry/bench/workload"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics, reported by every untraced
// run. The three timings are at the reference host speed (see
// hostspeed.go). Failures are not a metric here: the result line
// carries attempted and failed, and any failure fails the command.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"server_cpu_ms_per_op", "ms"},
	{"server_rss_peak_mb", "MB"},
	{"disk_mb", "MB"},
}

// driverLayers lists the per-layer metrics the driver measures itself
// (client side, or scraped from the servers' stats); bench/layers adds
// the in-process ones. A metric that does not apply to a workload (the
// router's overhead without a router) reads 0.
var driverLayers = []metricDef{
	{"host.speed", "ratio"},
	{"client.raw_ops_per_s", "1/s"},
	{"client.p50_ms", "ms"},
	{"client.p95_ms", "ms"},
	{"engine.etl.run_ms", "ms"},
	{"engine.etl.rows_per_s", "1/s"},
	{"olap.cache.hit_share", "ratio"},
	{"olap.matagg.served_share", "ratio"},
	{"olap.matagg.refresh_ms", "ms"},
	{"olap.dimcache.hit_share", "ratio"},
	{"server.class.cache_hit.p50_ms", "ms"},
	{"server.class.cache_hit.count", "count"},
	{"server.class.matagg.p50_ms", "ms"},
	{"server.class.matagg.count", "count"},
	{"server.class.fast.p50_ms", "ms"},
	{"server.class.fast.count", "count"},
	{"server.class.dice.p50_ms", "ms"},
	{"server.class.dice.count", "count"},
	{"server.http_minus_engine_ms", "ms"},
	{"router.gather.overhead_ms", "ms"},
	{"core.add_requirement.p50_ms", "ms"},
	{"core.remove_requirement.p50_ms", "ms"},
	{"trace.overhead_share", "ratio"},
}

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
}

// result is what one run reports; the contract line is made of
// Correct, Attempted, Failed and Metrics.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Samples counts the window's latency samples; RoundRates holds
	// the untraced rounds' rates as the clock gave them.
	Samples    int       `json:"samples"`
	RoundRates []float64 `json:"round_ops_per_s"`
	// ProbeMs holds the window's host probe times, HostSpeed what
	// their median says of the host (1: the reference box).
	ProbeMs   []float64 `json:"probe_ms"`
	HostSpeed float64   `json:"host_speed"`
	// Hashes maps each distinct query (its POST body) to the hash of
	// its canonical answer, verified against the oracle.
	Hashes   map[string]string `json:"hashes"`
	Failures []string          `json:"failures,omitempty"`
}

// quickRoundOps caps a round in --quick mode.
const quickRoundOps = 100

// setupsPerRun is how many times an untraced run sets its fleet up;
// setup_s is their median, the last fleet is the one measured.
const setupsPerRun = 3

// tally accumulates attempted and failed operations and the first few
// failure messages.
type tally struct {
	attempted, failed int
	failures          []string
}

func (t *tally) add(samples []sample) {
	for _, s := range samples {
		t.attempted++
		if s.err != nil {
			t.fail(s.err)
		}
	}
}

func (t *tally) fail(err error) {
	t.failed++
	if len(t.failures) < 10 {
		t.failures = append(t.failures, err.Error())
	}
}

// check counts one answer check.
func (t *tally) check(err error) {
	t.attempted++
	if err != nil {
		t.fail(err)
	}
}

func msOf(samples []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if keep(s) {
			out = append(out, s.ms)
		}
	}
	return out
}

// medianOr0 is the median, or 0 for no values (a metric that does not
// apply to the workload).
func medianOr0(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return trace.Median(v)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// fetch POSTs one query and returns the raw and canonical hashes of
// its answer.
func fetch(ctx context.Context, c *http.Client, base string, q workload.Query, oracle bool) (raw, canonical string, err error) {
	status, _, body, err := do(ctx, c, http.MethodPost, base+"/api/olap", "application/json", q.Body(oracle))
	if err != nil {
		return "", "", err
	}
	if status != http.StatusOK {
		return "", "", fmt.Errorf("%s (oracle=%v): status %d: %s", q.Shape, oracle, status, firstLine(body))
	}
	canonical, err = canonicalHash(body)
	return hashBytes(body), canonical, err
}

// verifyAnswers fetches every distinct query on the fast path and from
// the star-flow oracle and requires equal canonical answers; ref,
// when set, is an unsharded node whose fast-path answers must match
// too (the gather's byte-identity contract). It returns the raw and
// canonical hashes of the verified fast-path answers.
func verifyAnswers(ctx context.Context, c *http.Client, entry, ref string, queries []workload.Query, t *tally) (raw, canonical map[string]string) {
	raw, canonical = map[string]string{}, map[string]string{}
	for _, q := range queries {
		r, fast, err := fetch(ctx, c, entry, q, false)
		t.check(err)
		if err != nil {
			continue
		}
		raw[q.Key()], canonical[q.Key()] = r, fast
		_, oracle, err := fetch(ctx, c, entry, q, true)
		if err == nil && oracle != fast {
			err = fmt.Errorf("%s: fast path and oracle disagree on %s", q.Shape, q.Key())
		}
		t.check(err)
		if ref != "" {
			_, single, err := fetch(ctx, c, ref, q, false)
			if err == nil && single != fast {
				err = fmt.Errorf("%s: gathered answer differs from the unsharded node's on %s", q.Shape, q.Key())
			}
			t.check(err)
		}
	}
	return raw, canonical
}

// runWorkload performs one benchmark run of one workload.
func runWorkload(ctx context.Context, e env, cfg config) (*result, error) {
	spec, ok := workload.Specs()[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workload.Names)
	}
	if cfg.quick {
		spec.SF = workload.Quick
	}
	clients := min(runtime.NumCPU(), spec.Clients)
	round, err := workload.Round(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	if cfg.quick && len(round) > quickRoundOps {
		round = round[:quickRoundOps]
	}
	reqs, err := canonicalRequirements()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(e.outDir, "data"), 0o755); err != nil {
		return nil, err
	}
	lifecycle := cfg.workload == workload.LifecycleReload
	order := workload.LifecycleOrder(cfg.seed, len(reqs))
	roundOps := func(f *fleet, hashes map[string]string) []op {
		if lifecycle {
			return lifecycleOps(f.nodes[0].url, reqs, order, round[0], hashes)
		}
		return queryOps(f.entry(), round, hashes)
	}
	tag := cfg.workload
	if cfg.trace {
		tag += ".trace"
	}

	// Set-up, several times; the last fleet stays up.
	nSetups := setupsPerRun
	if cfg.trace || cfg.quick {
		nSetups = 1
	}
	var f *fleet
	var setups []float64
	var info setupInfo
	for i := 0; i < nSetups; i++ {
		if f != nil {
			f.stop()
		}
		var one setupInfo
		f, one, err = setUp(ctx, e, spec, reqs, clients, tag, func(f *fleet) []op { return roundOps(f, nil) })
		if err != nil {
			return nil, err
		}
		// The probe right after the set-up sees the host the set-up saw.
		setups = append(setups, refTime(one.seconds, probeHost()))
		info.merge(one)
		info.refreshMs = one.refreshMs
	}
	defer func() { f.stop() }()
	disk, err := f.diskMB()
	if err != nil {
		return nil, err
	}

	// Answer checks, outside the timed window. The unsharded reference
	// node lives for the check only, so that it does not share the
	// cores with the measured fleet.
	var t tally
	var rf *fleet
	ref := ""
	if spec.Shards > 0 {
		single := spec
		single.Shards = 0
		rf, _, err = setUp(ctx, e, single, reqs, clients, tag+".reference", func(*fleet) []op { return nil })
		if err != nil {
			return nil, fmt.Errorf("unsharded reference node: %w", err)
		}
		ref = rf.entry()
	}
	raw, canonical := verifyAnswers(ctx, f.client, f.entry(), ref, workload.Distinct(round), &t)
	if rf != nil {
		rf.stop()
	}
	ops := roundOps(f, raw)

	// The measured window.
	var stats0, stats1 olapStats
	if err := getJSON(ctx, f.client, f.nodes[0].url+"/api/olap/stats", &stats0); err != nil {
		return nil, err
	}
	cpu0, err := f.cpuMs()
	if err != nil {
		return nil, err
	}
	d := time.Duration(cfg.seconds * float64(time.Second))
	var win, traced window
	var rec *trace.Recorder
	if cfg.trace {
		// Two half windows: untraced, then with client-side spans; the
		// throughput difference is what tracing costs.
		win = measure(ctx, f.client, ops, clients, d/2, nil)
		rec = trace.NewRecorder()
		traced = measure(ctx, f.client, ops, clients, d/2, rec)
	} else {
		win = measure(ctx, f.client, ops, clients, d, nil)
	}
	cpu1, err := f.cpuMs()
	if err != nil {
		return nil, err
	}
	if err := getJSON(ctx, f.client, f.nodes[0].url+"/api/olap/stats", &stats1); err != nil {
		return nil, err
	}
	rss, err := f.rssPeakMB()
	if err != nil {
		return nil, err
	}
	samples := append(append([]sample(nil), win.samples...), traced.samples...)
	t.add(samples)

	res := &result{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Metrics: map[string]metric{},
		Samples: len(samples), RoundRates: win.roundRates, ProbeMs: win.probeMs, Hashes: canonical}
	windowProbeMs := trace.Median(append(append([]float64(nil), win.probeMs...), traced.probeMs...))
	res.HostSpeed = referenceProbeMs / windowProbeMs
	if !cfg.trace {
		okOps := float64(len(msOf(samples, func(s sample) bool { return s.err == nil })))
		values := []float64{
			trace.Median(setups),
			win.refRate(),
			refTime(ratio(cpu1-cpu0, okOps), windowProbeMs),
			rss,
			disk,
		}
		for i, def := range endToEnd {
			res.Metrics[def.name] = metric{values[i], def.unit}
		}
	} else {
		obs := observed{info: info, samples: samples, untraced: win, traced: traced, stats0: stats0, stats1: stats1}
		if err := layerMetrics(ctx, e, cfg, spec, f, res, obs); err != nil {
			return nil, err
		}
		if err := trace.WriteFile(filepath.Join(e.outDir, "trace_"+cfg.workload+"_driver.json"), rec.Spans()); err != nil {
			return nil, err
		}
	}

	if lifecycle {
		t.check(crashCheck(ctx, f, round[0], raw))
	}
	res.Attempted, res.Failed, res.Failures = t.attempted, t.failed, t.failures
	res.Correct = t.failed == 0
	return res, nil
}

// crashCheck SIGKILLs the lifecycle node, restarts it on the same
// directories and requires the verified answer again: an acknowledged
// commit survives a crash, with no further /api/run.
func crashCheck(ctx context.Context, f *fleet, q workload.Query, raw map[string]string) error {
	p := f.nodes[0]
	logPath := p.log.Name()
	p.kill()
	if err := p.start(logPath); err != nil {
		return err
	}
	if err := f.waitHealthy(ctx, p); err != nil {
		return err
	}
	got, _, err := fetch(ctx, f.client, p.url, q, false)
	if err != nil {
		return fmt.Errorf("after SIGKILL and restart: %w", err)
	}
	if got != raw[q.Key()] {
		return fmt.Errorf("after SIGKILL and restart: %s answer differs from the one before the crash", q.Shape)
	}
	return nil
}

// observed is what a traced run saw from outside the servers.
type observed struct {
	info             setupInfo
	samples          []sample // of both half windows
	untraced, traced window
	stats0, stats1   olapStats // /api/olap/stats before and after
}

// layerMetrics fills res.Metrics with every per-layer metric: the
// driver's own and those of the traced in-process run.
func layerMetrics(ctx context.Context, e env, cfg config, spec workload.Spec, f *fleet, res *result, obs observed) error {
	info, samples, s0, s1 := obs.info, obs.samples, obs.stats0, obs.stats1
	m := map[string]float64{}
	all := msOf(samples, func(sample) bool { return true })
	if !trace.SupportsPercentile(len(all), 0.95) && !cfg.quick {
		fmt.Fprintf(os.Stderr, "bench: %s: only %d samples, fewer than client.p95_ms needs; lengthen --seconds\n", cfg.workload, len(all))
	}
	m["host.speed"] = res.HostSpeed
	m["client.raw_ops_per_s"] = trace.Median(obs.untraced.roundRates)
	m["client.p50_ms"] = trace.Median(all)
	m["client.p95_ms"] = trace.Percentile(all, 0.95)
	m["engine.etl.run_ms"] = medianOr0(info.etlRunMs)
	if len(info.etlRunMs) > 0 {
		m["engine.etl.rows_per_s"] = ratio(trace.Median(info.etlRows), trace.Median(info.etlRunMs)/1e3)
	}
	hits, misses := float64(s1.CacheHits-s0.CacheHits), float64(s1.CacheMisses-s0.CacheMisses)
	m["olap.cache.hit_share"] = ratio(hits, hits+misses)
	if s0.MatAgg != nil && s1.MatAgg != nil {
		served := float64(s1.MatAgg.Hits - s0.MatAgg.Hits + s1.MatAgg.Rewrites - s0.MatAgg.Rewrites)
		m["olap.matagg.served_share"] = ratio(served, misses)
		dh, dm := float64(s1.MatAgg.DimCacheHits-s0.MatAgg.DimCacheHits), float64(s1.MatAgg.DimCacheMisses-s0.MatAgg.DimCacheMisses)
		m["olap.dimcache.hit_share"] = ratio(dh, dh+dm)
	}
	m["olap.matagg.refresh_ms"] = info.refreshMs
	for _, class := range []string{"cache_hit", "matagg", "fast", "dice"} {
		ms := msOf(samples, func(s sample) bool { return s.class == class && s.err == nil })
		m["server.class."+class+".p50_ms"] = medianOr0(ms)
		m["server.class."+class+".count"] = float64(len(ms))
	}
	adds := append(info.addReqMs, msOf(samples, func(s sample) bool { return s.shape == "add_requirement" })...)
	m["core.add_requirement.p50_ms"] = medianOr0(adds)
	m["core.remove_requirement.p50_ms"] = medianOr0(msOf(samples, func(s sample) bool { return s.shape == "remove_requirement" }))
	m["trace.overhead_share"] = 1 - ratio(obs.traced.refRate(), obs.untraced.refRate())
	if f.router != nil {
		v, err := gatherOverhead(ctx, f)
		if err != nil {
			return err
		}
		m["router.gather.overhead_ms"] = v
	}

	// The traced in-process run.
	layers, err := runLayers(ctx, e, cfg, spec)
	if err != nil {
		return err
	}
	// HTTP minus engine: what decode, admission, render, write and the
	// loopback add to one shape's in-process query time. The shape is
	// the workload's most overhead-bound one.
	shape, engineMs := workload.StarWide, layers["olap.query.star_wide_ms"].Value
	switch cfg.workload {
	case workload.DashZipf:
		shape, engineMs = "", 0 // a cache hit does no engine work at all
	case workload.LifecycleReload:
		shape, engineMs = workload.ScanGroup, layers["olap.query.scan_group_ms"].Value
	}
	client := msOf(samples, func(s sample) bool {
		if shape == "" {
			return s.class == "cache_hit"
		}
		return s.shape == shape
	})
	m["server.http_minus_engine_ms"] = medianOr0(client) - engineMs

	for _, def := range driverLayers {
		res.Metrics[def.name] = metric{m[def.name], def.unit}
	}
	for name, v := range layers {
		res.Metrics[name] = v
	}
	return nil
}

// gatherOverhead is the gather's median latency for the scan_group
// query minus the slower shard's median for the same query asked
// directly at /api/olap/partial, one request at a time.
func gatherOverhead(ctx context.Context, f *fleet) (float64, error) {
	body := workload.ScanGroupQuery().Body(false)
	p50 := func(url string) (float64, error) {
		var ms []float64
		for i := 0; i < 15; i++ {
			s := execOp(ctx, f.client, op{shape: "probe", method: http.MethodPost, url: url, contentType: "application/json", body: body, want: http.StatusOK}, nil, "")
			if s.err != nil {
				return 0, s.err
			}
			ms = append(ms, s.ms)
		}
		return trace.Median(ms), nil
	}
	gather, err := p50(f.router.url + "/api/olap")
	if err != nil {
		return 0, err
	}
	var slowest float64
	for _, n := range f.nodes {
		v, err := p50(n.url + "/api/olap/partial")
		if err != nil {
			return 0, err
		}
		slowest = max(slowest, v)
	}
	return gather - slowest, nil
}

// runLayers executes the traced in-process run (bench/layers) for the
// workload and returns its metrics.
func runLayers(ctx context.Context, e env, cfg config, spec workload.Spec) (map[string]metric, error) {
	dir, err := os.MkdirTemp(filepath.Join(e.outDir, "data"), "layers-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cmd := exec.CommandContext(ctx, filepath.Join(e.binDir, "layers"),
		"-sf", fmt.Sprint(spec.SF), "-seed", fmt.Sprint(cfg.seed),
		"-data-dir", dir, "-out", filepath.Join(e.outDir, "trace_"+cfg.workload+".json"))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("bench/layers: %w", err)
	}
	var out struct {
		Metrics map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return nil, fmt.Errorf("bench/layers output: %w", err)
	}
	return out.Metrics, nil
}
