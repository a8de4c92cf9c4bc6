package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// benchConfig parameterizes one load run.
type benchConfig struct {
	Target string // base URL of the quarryd/quarryrouter endpoint
	QPS    float64
	// Duration is how long the schedule runs; in-flight requests are
	// drained after the last scheduled send.
	Duration time.Duration
	ZipfS    float64 // Zipf skew of the query mix (> 1)
	Seed     int64
	// OracleEvery makes every Nth scheduled request an oracle spot
	// check: the fast-path answer is re-fetched through the star-flow
	// reference executor and compared byte-for-byte. 0 disables.
	OracleEvery int
	// ReloadInterval, when > 0, POSTs /api/run at this interval to
	// exercise warehouse churn (cache purges + aggregate refreshes)
	// under load.
	ReloadInterval time.Duration
	Timeout        time.Duration
	Fact           string
}

// Percentiles reports latency in microseconds.
type Percentiles struct {
	P50  float64 `json:"p50_us"`
	P95  float64 `json:"p95_us"`
	P99  float64 `json:"p99_us"`
	P999 float64 `json:"p999_us"`
	Max  float64 `json:"max_us"`
	Mean float64 `json:"mean_us"`
}

// StatsDelta is the server-side counter movement over the run,
// scraped from GET /api/olap/stats before and after.
type StatsDelta struct {
	Queries int64 `json:"queries"`
	// The server's accounting identity: Queries = Answered + Shed +
	// QueryErrors, exact once the run has drained (the harness scrapes
	// after the last in-flight request completes). DeadlineExceeded is
	// the 504 subset of QueryErrors, not an extra term.
	Answered         int64   `json:"answered"`
	Shed             int64   `json:"shed"`
	QueryErrors      int64   `json:"query_errors"`
	DeadlineExceeded int64   `json:"deadline_exceeded"`
	CacheHits        int64   `json:"cache_hits"`
	CacheMisses      int64   `json:"cache_misses"`
	CacheHitRatio    float64 `json:"cache_hit_ratio"`
	// Materialized-aggregate traffic; all zero when matagg is off.
	MatAggHits         int64   `json:"matagg_hits"`
	MatAggRewrites     int64   `json:"matagg_rewrites"`
	MatAggMisses       int64   `json:"matagg_misses"`
	MatAggHitRatio     float64 `json:"matagg_hit_ratio"`
	MatAggMaterialized int     `json:"matagg_materialized"`
	MatAggRows         int64   `json:"matagg_rows"`
}

// QueryCount is one mix entry's share of the run.
type QueryCount struct {
	Name     string `json:"name"`
	Requests int64  `json:"requests"`
}

// LoadReport is the run artifact (BENCH_load_<sha>.json).
type LoadReport struct {
	SHA             string  `json:"sha,omitempty"`
	Target          string  `json:"target"`
	OfferedQPS      float64 `json:"offered_qps"`
	ZipfS           float64 `json:"zipf_s"`
	Seed            int64   `json:"seed"`
	DurationSeconds float64 `json:"duration_seconds"`
	Scheduled       int64   `json:"scheduled"`
	Requests        int64   `json:"requests"` // completed, incl. oracle re-fetches
	// Every completed request is exactly one of answered (2xx), shed
	// (429 admission refusal — the server working as designed under
	// overload, NOT an error) or error (transport failure or any other
	// non-2xx, including 504 deadline expiries).
	Answered      int64        `json:"answered"`
	Shed          int64        `json:"shed"`
	ShedRate      float64      `json:"shed_rate"`
	Errors        int64        `json:"errors"`
	ErrorRate     float64      `json:"error_rate"`
	ThroughputRPS float64      `json:"throughput_rps"`
	GoodputRPS    float64      `json:"goodput_rps"` // answered (2xx) per second
	Latency       Percentiles  `json:"latency"`     // admitted (2xx) requests only
	Mix           []QueryCount `json:"mix"`
	// Oracle spot-check accounting. Mismatches MUST be zero: a
	// non-zero value means the fast path diverged from the reference
	// executor. A pair whose two fetches report different warehouse
	// epochs (X-Quarry-Version response header) is skipped — the
	// answers may legitimately differ across versions. Against servers
	// that predate the header, pairs that straddled one of this
	// client's own reloads are skipped instead; that fallback cannot
	// see reloads triggered elsewhere (e.g. a shard fleet republishing
	// behind a gather router), which is why the header takes priority.
	OracleChecks     int64 `json:"oracle_checks"`
	OracleMismatches int64 `json:"oracle_mismatches"`
	OracleSkipped    int64 `json:"oracle_skipped"`
	// Reload churn accounting.
	Reloads      int64       `json:"reloads"`
	ReloadErrors int64       `json:"reload_errors"`
	Stats        *StatsDelta `json:"stats,omitempty"`
	StatsError   string      `json:"stats_error,omitempty"`
}

// runBench drives the target open-loop: requests fire on a fixed
// schedule derived from QPS alone, never gated on responses, and each
// latency is measured from the request's SCHEDULED time — so a server
// that stalls accumulates the stall into every latency that queued
// behind it instead of silently thinning the arrival rate
// (coordinated omission). A closed loop would measure a stalled
// server as "slow but fine"; this measures it as what a real caller
// population would experience.
func runBench(cfg benchConfig) (*LoadReport, error) {
	if cfg.QPS <= 0 {
		return nil, fmt.Errorf("qps must be > 0 (got %g)", cfg.QPS)
	}
	if cfg.ZipfS <= 1 {
		return nil, fmt.Errorf("zipf skew must be > 1 (got %g)", cfg.ZipfS)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	queries := goldenWorkload(cfg.Fact)
	bodies := make([][]byte, len(queries))
	oracleBodies := make([][]byte, len(queries))
	for i, q := range queries {
		b, err := json.Marshal(q.Body)
		if err != nil {
			return nil, fmt.Errorf("marshal %s: %w", q.Name, err)
		}
		bodies[i] = b
		ob := make(map[string]any, len(q.Body)+1)
		for k, v := range q.Body {
			ob[k] = v
		}
		ob["oracle"] = true
		if oracleBodies[i], err = json.Marshal(ob); err != nil {
			return nil, fmt.Errorf("marshal %s oracle: %w", q.Name, err)
		}
	}
	client := &http.Client{Timeout: cfg.Timeout}
	target := strings.TrimRight(cfg.Target, "/")
	statsBefore, statsErr := scrapeStats(client, cfg.Target)

	var (
		h          = newHist()
		requests   atomic.Int64
		answered   atomic.Int64
		shed       atomic.Int64
		errors     atomic.Int64
		perQuery   = make([]atomic.Int64, len(queries))
		oracleChk  atomic.Int64
		oracleBad  atomic.Int64
		oracleSkip atomic.Int64
		reloads    atomic.Int64
		reloadErrs atomic.Int64
		// reloadGen counts completed reloads; an oracle pair that saw
		// the generation move between its two fetches is skipped, since
		// the answers may legitimately differ across versions.
		reloadGen atomic.Int64
	)

	post := func(path string, body []byte) (int, http.Header, []byte, error) {
		resp, err := client.Post(target+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, nil, nil, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return resp.StatusCode, resp.Header, nil, err
		}
		return resp.StatusCode, resp.Header, data, nil
	}

	// Reload churn: POST /api/run on its own clock until the schedule
	// ends. Runs concurrently with queries on purpose — the point is
	// to measure serving behaviour while the warehouse republishes.
	stopReload := make(chan struct{})
	var reloadWG sync.WaitGroup
	if cfg.ReloadInterval > 0 {
		reloadWG.Add(1)
		go func() {
			defer reloadWG.Done()
			tick := time.NewTicker(cfg.ReloadInterval)
			defer tick.Stop()
			for {
				select {
				case <-stopReload:
					return
				case <-tick.C:
					code, _, _, err := post("/api/run", []byte("{}"))
					reloads.Add(1)
					if err != nil || code/100 != 2 {
						reloadErrs.Add(1)
					} else {
						reloadGen.Add(1)
					}
				}
			}
		}()
	}

	// outcome buckets one completed request: every request is exactly
	// one of answered / shed / error, and only ADMITTED (2xx) latencies
	// feed the histogram — under deliberate overload a shed answers in
	// microseconds, and mixing those into the percentiles would make an
	// overloaded server look faster the harder it sheds.
	outcome := func(code int, err error, latNs int64) (ok bool) {
		requests.Add(1)
		switch {
		case err == nil && code/100 == 2:
			h.Record(latNs)
			answered.Add(1)
			return true
		case err == nil && code == http.StatusTooManyRequests:
			// Admission-control shed: the server protecting its SLO is
			// correct behaviour, accounted apart from real errors.
			shed.Add(1)
		default:
			errors.Add(1)
		}
		return false
	}

	fire := func(sched time.Time, qi int, oracle bool) {
		perQuery[qi].Add(1)
		genBefore := reloadGen.Load()
		code, fastHdr, fastBody, err := post("/api/olap", bodies[qi])
		ok := outcome(code, err, time.Since(sched).Nanoseconds())
		if !oracle || !ok {
			return
		}
		// Oracle spot check: same query through the star-flow reference
		// executor; its latency counts (it is real offered load), and
		// the two answers must be byte-identical unless the warehouse
		// republished between the fetches.
		oStart := time.Now()
		oCode, oHdr, oBody, oErr := post("/api/olap", oracleBodies[qi])
		if !outcome(oCode, oErr, time.Since(oStart).Nanoseconds()) {
			return
		}
		// Version-skew detection. The X-Quarry-Version header names the
		// warehouse epoch each answer was computed at (on a shard gather,
		// the merge epoch of the whole fleet). When both fetches carry
		// it, it is authoritative: differing epochs mean the comparison
		// is meaningless and is skipped; equal epochs mean the answers
		// came from the same snapshot and MUST match, even if a reload
		// completed in between. The local reload counter is only a
		// fallback for servers that predate the header — it cannot see
		// reloads triggered by other clients or by shard fleets
		// republishing on their own clock.
		fastVer, oVer := fastHdr.Get("X-Quarry-Version"), oHdr.Get("X-Quarry-Version")
		if fastVer != "" && oVer != "" {
			if fastVer != oVer {
				oracleSkip.Add(1)
				return
			}
		} else if reloadGen.Load() != genBefore {
			oracleSkip.Add(1)
			return
		}
		oracleChk.Add(1)
		if !bytes.Equal(fastBody, oBody) {
			oracleBad.Add(1)
		}
	}

	pick := newPicker(cfg.Seed, cfg.ZipfS, len(queries))
	interval := time.Duration(float64(time.Second) / cfg.QPS)
	var wg sync.WaitGroup
	start := time.Now()
	var scheduled int64
	for {
		sched := start.Add(time.Duration(scheduled) * interval)
		if sched.Sub(start) >= cfg.Duration {
			break
		}
		time.Sleep(time.Until(sched))
		qi := pick()
		oracle := cfg.OracleEvery > 0 && scheduled%int64(cfg.OracleEvery) == int64(cfg.OracleEvery)-1
		wg.Add(1)
		go func() {
			defer wg.Done()
			fire(sched, qi, oracle)
		}()
		scheduled++
	}
	wg.Wait()
	close(stopReload)
	reloadWG.Wait()
	elapsed := time.Since(start)

	rep := &LoadReport{
		Target:          cfg.Target,
		OfferedQPS:      cfg.QPS,
		ZipfS:           cfg.ZipfS,
		Seed:            cfg.Seed,
		DurationSeconds: elapsed.Seconds(),
		Scheduled:       scheduled,
		Requests:        requests.Load(),
		Answered:        answered.Load(),
		Shed:            shed.Load(),
		Errors:          errors.Load(),
		ThroughputRPS:   float64(requests.Load()) / elapsed.Seconds(),
		GoodputRPS:      float64(answered.Load()) / elapsed.Seconds(),
		Latency: Percentiles{
			P50:  float64(h.Quantile(0.50)) / 1e3,
			P95:  float64(h.Quantile(0.95)) / 1e3,
			P99:  float64(h.Quantile(0.99)) / 1e3,
			P999: float64(h.Quantile(0.999)) / 1e3,
			Max:  float64(h.Max()) / 1e3,
			Mean: h.Mean() / 1e3,
		},
		OracleChecks:     oracleChk.Load(),
		OracleMismatches: oracleBad.Load(),
		OracleSkipped:    oracleSkip.Load(),
		Reloads:          reloads.Load(),
		ReloadErrors:     reloadErrs.Load(),
	}
	if rep.Requests > 0 {
		rep.ErrorRate = float64(rep.Errors) / float64(rep.Requests)
		rep.ShedRate = float64(rep.Shed) / float64(rep.Requests)
	}
	for i, q := range queries {
		rep.Mix = append(rep.Mix, QueryCount{Name: q.Name, Requests: perQuery[i].Load()})
	}
	statsAfter, afterErr := scrapeStats(client, cfg.Target)
	switch {
	case statsErr != nil:
		rep.StatsError = statsErr.Error()
	case afterErr != nil:
		rep.StatsError = afterErr.Error()
	default:
		rep.Stats = statsDelta(statsBefore, statsAfter)
	}
	return rep, nil
}

// statsDelta subtracts the pre-run counter snapshot so the report
// reflects only this run's traffic, even against a long-lived server.
func statsDelta(before, after *serverStats) *StatsDelta {
	d := &StatsDelta{
		Queries:          after.Queries - before.Queries,
		Answered:         after.Answered - before.Answered,
		Shed:             after.Shed - before.Shed,
		QueryErrors:      after.QueryErrors - before.QueryErrors,
		DeadlineExceeded: after.DeadlineExceeded - before.DeadlineExceeded,
		CacheHits:        after.CacheHits - before.CacheHits,
		CacheMisses:      after.CacheMisses - before.CacheMisses,
	}
	if tot := d.CacheHits + d.CacheMisses; tot > 0 {
		d.CacheHitRatio = float64(d.CacheHits) / float64(tot)
	}
	if after.MatAgg != nil {
		var bh, br, bm int64
		if before.MatAgg != nil {
			bh, br, bm = before.MatAgg.Hits, before.MatAgg.Rewrites, before.MatAgg.Misses
		}
		d.MatAggHits = after.MatAgg.Hits - bh
		d.MatAggRewrites = after.MatAgg.Rewrites - br
		d.MatAggMisses = after.MatAgg.Misses - bm
		if tot := d.MatAggHits + d.MatAggRewrites + d.MatAggMisses; tot > 0 {
			d.MatAggHitRatio = float64(d.MatAggHits+d.MatAggRewrites) / float64(tot)
		}
		d.MatAggMaterialized = after.MatAgg.Materialized
		d.MatAggRows = after.MatAgg.MaterializedRows
	}
	return d
}
