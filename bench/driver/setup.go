package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"quarry"
	"quarry/bench/workload"
)

// env is where the driver finds binaries and writes its files.
type env struct {
	binDir string // quarryd, quarryrouter, layers
	outDir string // logs, results, traces, data directories
}

// requirement is one canonical requirement as posted over HTTP.
type requirement struct {
	id  string
	xml []byte
}

// canonicalRequirements renders the four demo requirements as xRQ —
// the driver's only use of the quarry package.
func canonicalRequirements() ([]requirement, error) {
	var out []requirement
	for _, r := range quarry.CanonicalRequirements() {
		text, err := quarry.MarshalRequirement(r)
		if err != nil {
			return nil, fmt.Errorf("marshalling requirement %s: %w", r.ID, err)
		}
		out = append(out, requirement{id: r.ID, xml: []byte(text)})
	}
	return out, nil
}

// setupInfo is what one set-up measured besides its own duration.
type setupInfo struct {
	seconds     float64
	addReqMs    []float64 // client latency of each POST /api/requirements
	etlRunMs    []float64 // elapsed_us of each POST /api/run, in ms
	etlRows     []float64 // rows_processed of each POST /api/run
	refreshMs   float64   // matagg refresh after the second run (dash_zipf)
	warmSamples []sample  // the warm-up round's samples
}

// merge adds another set-up's per-request observations.
func (s *setupInfo) merge(o setupInfo) {
	s.addReqMs = append(s.addReqMs, o.addReqMs...)
	s.etlRunMs = append(s.etlRunMs, o.etlRunMs...)
	s.etlRows = append(s.etlRows, o.etlRows...)
}

// startFleet launches the workload's quarryd nodes (not yet the
// router: the gather wants shards that already answer).
func startFleet(e env, spec workload.Spec, tag string) (*fleet, error) {
	f := &fleet{client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}}
	n := max(spec.Shards, 1)
	addrs, err := freeAddrs(n + 1)
	if err != nil {
		return nil, err
	}
	f.routerAddr = addrs[n]
	for i, addr := range addrs[:n] {
		dir, err := os.MkdirTemp(filepath.Join(e.outDir, "data"), spec.Name+"-")
		if err != nil {
			f.stop()
			return nil, err
		}
		f.dirs = append(f.dirs, dir)
		args := []string{"-addr", addr, "-sf", fmt.Sprint(spec.SF), "-seed", fmt.Sprint(workload.DataSeed),
			"-data-dir", filepath.Join(dir, "warehouse")}
		if spec.Name == workload.LifecycleReload {
			// Designs must survive the SIGKILL too.
			args = append(args, "-store", filepath.Join(dir, "designs"))
		}
		if spec.Shards > 0 {
			args = append(args, "-shards", fmt.Sprint(spec.Shards), "-shard-index", fmt.Sprint(i))
		}
		args = append(args, spec.Flags...)
		p := &proc{name: fmt.Sprintf("quarryd%d", i), bin: filepath.Join(e.binDir, "quarryd"), args: args, url: "http://" + addr}
		if err := p.start(filepath.Join(e.outDir, tag+"."+p.name+".log")); err != nil {
			f.stop()
			return nil, err
		}
		f.nodes = append(f.nodes, p)
	}
	return f, nil
}

// startRouter fronts the shards with a gather router.
func (f *fleet) startRouter(ctx context.Context, e env, spec workload.Spec, tag string) error {
	addr := f.routerAddr
	var urls []string
	for _, p := range f.nodes {
		urls = append(urls, p.url)
	}
	p := &proc{name: "quarryrouter", bin: filepath.Join(e.binDir, "quarryrouter"),
		args: []string{"-addr", addr, "-shard-of", strings.Join(urls, ",")}, url: "http://" + addr}
	if err := p.start(filepath.Join(e.outDir, tag+"."+p.name+".log")); err != nil {
		return err
	}
	f.router = p
	return f.waitHealthy(ctx, p)
}

// postRun triggers one ETL run on a node.
func (f *fleet) postRun(ctx context.Context, p *proc) (runAnswer, error) {
	var ans runAnswer
	status, _, body, err := do(ctx, f.client, http.MethodPost, p.url+"/api/run", "", nil)
	if err != nil {
		return ans, err
	}
	if status != http.StatusOK {
		return ans, fmt.Errorf("POST /api/run on %s: status %d: %s", p.name, status, firstLine(body))
	}
	return ans, json.Unmarshal(body, &ans)
}

// queryOps turns a round of queries into ops against the fleet's
// entry. hashes, when non-nil, pins each answer to its verified hash.
func queryOps(entry string, round []workload.Query, hashes map[string]string) []op {
	ops := make([]op, len(round))
	for i, q := range round {
		ops[i] = op{shape: q.Shape, method: http.MethodPost, url: entry + "/api/olap", contentType: "application/json",
			body: q.Body(false), want: http.StatusOK, wantHash: hashes[q.Key()]}
	}
	return ops
}

// lifecycleOps is one iteration of the paper's loop against one node:
// remove every requirement, post them back one at a time, run the
// ETL, ask one query.
func lifecycleOps(base string, reqs []requirement, order []int, query workload.Query, hashes map[string]string) []op {
	var ops []op
	for _, i := range order {
		ops = append(ops, op{shape: "remove_requirement", method: http.MethodDelete, url: base + "/api/requirements/" + reqs[i].id})
	}
	for _, i := range order {
		ops = append(ops, op{shape: "add_requirement", method: http.MethodPost, url: base + "/api/requirements",
			contentType: "application/xml", body: reqs[i].xml, want: http.StatusCreated})
	}
	ops = append(ops, op{shape: "etl_run", method: http.MethodPost, url: base + "/api/run", want: http.StatusOK})
	ops = append(ops, queryOps(base, []workload.Query{query}, hashes)...)
	return ops
}

// setUp brings a workload's fleet from nothing to warmed up: process
// start, requirements posted, /api/run done on every node, router up,
// (dash_zipf: training burst, second run, aggregates refreshed,) and
// one warm-up round replayed. roundOps builds the round against the
// new fleet.
func setUp(ctx context.Context, e env, spec workload.Spec, reqs []requirement, clients int, tag string,
	roundOps func(f *fleet) []op) (*fleet, setupInfo, error) {
	var info setupInfo
	t0 := time.Now()
	f, err := startFleet(e, spec, tag)
	if err != nil {
		return nil, info, err
	}
	fail := func(err error) (*fleet, setupInfo, error) {
		f.stop()
		return nil, info, fmt.Errorf("set-up of %s: %w", spec.Name, err)
	}
	// Lockstep lifecycle: the same requirements in the same order on
	// every node, which keeps a fleet's warehouse versions equal.
	perNode := make([]setupInfo, len(f.nodes))
	err = f.eachNode(func(i int, p *proc) error {
		if err := f.waitHealthy(ctx, p); err != nil {
			return err
		}
		mine := &perNode[i]
		for _, r := range reqs {
			s := execOp(ctx, f.client, op{shape: "add_requirement", method: http.MethodPost, url: p.url + "/api/requirements",
				contentType: "application/xml", body: r.xml, want: http.StatusCreated}, nil, "")
			if s.err != nil {
				return s.err
			}
			mine.addReqMs = append(mine.addReqMs, s.ms)
		}
		ans, err := f.postRun(ctx, p)
		if err != nil {
			return err
		}
		mine.etlRunMs = append(mine.etlRunMs, float64(ans.ElapsedMicros)/1e3)
		mine.etlRows = append(mine.etlRows, float64(ans.RowsProcessed))
		return nil
	})
	if err != nil {
		return fail(err)
	}
	for _, n := range perNode {
		info.merge(n)
	}
	if spec.Shards > 0 {
		if err := f.startRouter(ctx, e, spec, tag); err != nil {
			return fail(err)
		}
	}
	ops := roundOps(f)
	if spec.Name == workload.DashZipf {
		// Training burst: the aggregate store learns the mix from the
		// query log; the next run's commit triggers its refresh.
		if samples, _ := runRound(ctx, f.client, ops, clients, nil, 0); firstErr(samples) != nil {
			return fail(fmt.Errorf("training burst: %w", firstErr(samples)))
		}
		ans, err := f.postRun(ctx, f.nodes[0])
		if err != nil {
			return fail(err)
		}
		info.etlRunMs = append(info.etlRunMs, float64(ans.ElapsedMicros)/1e3)
		info.etlRows = append(info.etlRows, float64(ans.RowsProcessed))
		ran := time.Now()
		err = waitUntil(ctx, "materialized aggregates at the warehouse version", func() (bool, error) {
			var st olapStats
			if err := getJSON(ctx, f.client, f.nodes[0].url+"/api/olap/stats", &st); err != nil {
				return false, err
			}
			return st.MatAgg != nil && st.MatAgg.LastRefreshVersion == st.WarehouseVersion, nil
		})
		if err != nil {
			return fail(err)
		}
		info.refreshMs = float64(time.Since(ran).Nanoseconds()) / 1e6
	}
	// Warm-up: caches fill and lazy set-up finishes before timing.
	info.warmSamples, _ = runRound(ctx, f.client, ops, clients, nil, 0)
	if err := firstErr(info.warmSamples); err != nil {
		return fail(fmt.Errorf("warm-up round: %w", err))
	}
	info.seconds = time.Since(t0).Seconds()
	return f, info, nil
}

func firstErr(samples []sample) error {
	for _, s := range samples {
		if s.err != nil {
			return s.err
		}
	}
	return nil
}
