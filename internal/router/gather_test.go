package router

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"quarry/internal/engine"
	"quarry/internal/expr"
	"quarry/internal/shard"
	"quarry/internal/xlm"
)

// partialFor fabricates shard s's partial answer over its slice of a
// fixed 3-group dataset: group g_i carries float measures whose exact
// sum the merge must reproduce.
func partialFor(t *testing.T, index, count int, epoch uint64) *shard.PartialResponse {
	t.Helper()
	aggs := []xlm.AggSpec{
		{Out: "n", Func: "COUNT"},
		{Out: "total", Func: "SUM", Col: "amount"},
	}
	agg, err := engine.NewHashAggregator([]int{0}, aggs, []int{-1, 1})
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]expr.Value
	for i := 0; i < 90; i++ {
		if i%count != index {
			continue
		}
		rows = append(rows, []expr.Value{
			expr.Str(fmt.Sprintf("g%d", i%3)),
			expr.Float(0.1 + float64(i)*1e13),
		})
	}
	if err := agg.Add(rows); err != nil {
		t.Fatal(err)
	}
	return shard.EncodePartial(index, count, epoch, []string{"g", "n", "total"}, 1, aggs, agg.Partials())
}

// fakeShard serves canned partial answers; behavior can be swapped
// per request via the handler slot.
type fakeShard struct {
	ts      *httptest.Server
	handler atomic.Value // func(w http.ResponseWriter, r *http.Request)
	hits    atomic.Int64
}

func newFakeShard(t *testing.T, index, count int, epoch uint64) *fakeShard {
	t.Helper()
	fs := &fakeShard{}
	fs.serve(func(w http.ResponseWriter, r *http.Request) {
		writePartial(w, partialFor(t, index, count, epoch))
	})
	fs.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/api/health":
			fmt.Fprintf(w, `{"status":"ok","shard_index":%d,"shard_count":%d,"epoch":%d}`, index, count, epoch)
		case "/api/olap/partial":
			fs.hits.Add(1)
			fs.handler.Load().(func(http.ResponseWriter, *http.Request))(w, r)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(fs.ts.Close)
	return fs
}

func (fs *fakeShard) serve(h func(http.ResponseWriter, *http.Request)) {
	fs.handler.Store(h)
}

// writePartial answers as a shard does: the partial's frame.
func writePartial(w http.ResponseWriter, pr *shard.PartialResponse) {
	frame, err := pr.MarshalBinary()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(frame)
}

func gatherOver(t *testing.T, shards []*fakeShard, attempts, skewRetries int) *httptest.Server {
	t.Helper()
	urls := make([]string, len(shards))
	for i, s := range shards {
		urls[i] = s.ts.URL
	}
	g, err := NewShardGather(urls, &http.Client{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	g.attempts, g.skewRetries = attempts, skewRetries
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postGather(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url+"/api/olap", "application/json", strings.NewReader(`{"fact":"f"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(body)
}

// oracleBody is what a single node folding all 90 rows would answer.
func oracleBody(t *testing.T) string {
	t.Helper()
	solo := partialFor(t, 0, 1, 7)
	cols, rows, _, err := shard.Merge([]*shard.PartialResponse{solo})
	if err != nil {
		t.Fatal(err)
	}
	out := struct {
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}{Columns: cols, Rows: [][]string{}}
	for _, row := range rows {
		vals := make([]string, len(row))
		for i, v := range row {
			if v.Kind() == expr.KindString {
				vals[i] = v.AsString()
			} else {
				vals[i] = v.String()
			}
		}
		out.Rows = append(out.Rows, vals)
	}
	b, _ := json.Marshal(out)
	return string(b) + "\n"
}

func TestGatherMergesAllShards(t *testing.T) {
	shards := []*fakeShard{
		newFakeShard(t, 0, 3, 7),
		newFakeShard(t, 1, 3, 7),
		newFakeShard(t, 2, 3, 7),
	}
	ts := gatherOver(t, shards, 1, 0)
	resp, body := postGather(t, ts.URL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if want := oracleBody(t); body != want {
		t.Fatalf("gathered body is not byte-identical to the single-node answer:\n got: %s\nwant: %s", body, want)
	}
	if got := resp.Header.Get("X-Quarry-Version"); got != "7" {
		t.Fatalf("X-Quarry-Version = %q, want 7", got)
	}
}

// TestGatherStampsOneClass: a gathered answer carries the answer-source
// class (X-Quarry-Class) its shards stamped when every shard stamped
// the same one, and none when they differ or one stamped none.
func TestGatherStampsOneClass(t *testing.T) {
	for _, tc := range []struct {
		classes []string
		want    string
	}{
		{[]string{"fast", "fast", "fast"}, "fast"},
		{[]string{"matagg", "matagg", "matagg"}, "matagg"},
		{[]string{"dice", "dice", "dice"}, "dice"},
		{[]string{"matagg", "fast", "matagg"}, ""},
		{[]string{"fast", "fast", ""}, ""},
	} {
		shards := make([]*fakeShard, len(tc.classes))
		for i, class := range tc.classes {
			shards[i] = newFakeShard(t, i, len(tc.classes), 7)
			pr := partialFor(t, i, len(tc.classes), 7)
			shards[i].serve(func(w http.ResponseWriter, r *http.Request) {
				if class != "" {
					w.Header().Set("X-Quarry-Class", class)
				}
				writePartial(w, pr)
			})
		}
		resp, body := postGather(t, gatherOver(t, shards, 1, 0).URL)
		if resp.StatusCode != http.StatusOK || body != oracleBody(t) {
			t.Fatalf("shard classes %q: status %d: %s", tc.classes, resp.StatusCode, body)
		}
		if got, stamped := resp.Header.Get("X-Quarry-Class"), resp.Header.Values("X-Quarry-Class") != nil; got != tc.want || stamped != (tc.want != "") {
			t.Fatalf("shard classes %q: gathered class %q (stamped %v), want %q", tc.classes, got, stamped, tc.want)
		}
	}
}

// Shard down at query time: after per-shard retries the whole query
// fails — never a partial answer from the survivors.
func TestGatherShardDownFailsWholeQuery(t *testing.T) {
	shards := []*fakeShard{
		newFakeShard(t, 0, 3, 7),
		newFakeShard(t, 1, 3, 7),
		newFakeShard(t, 2, 3, 7),
	}
	shards[1].ts.Close()
	ts := gatherOver(t, shards, 2, 0)
	resp, body := postGather(t, ts.URL)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d (%s), want 502", resp.StatusCode, body)
	}
	if !strings.Contains(body, "shard 1") || !strings.Contains(body, "refusing partial answer") {
		t.Fatalf("error does not state the failure contract: %s", body)
	}
}

// A shard that 5xxes once and then recovers is retried within the
// same scatter; the query succeeds.
func TestGatherRetriesFlakyShard(t *testing.T) {
	shards := []*fakeShard{
		newFakeShard(t, 0, 2, 7),
		newFakeShard(t, 1, 2, 7),
	}
	var failures atomic.Int64
	failures.Store(1)
	shards[1].serve(func(w http.ResponseWriter, r *http.Request) {
		if failures.Add(-1) >= 0 {
			http.Error(w, "mid-restart", http.StatusInternalServerError)
			return
		}
		writePartial(w, partialFor(t, 1, 2, 7))
	})
	ts := gatherOver(t, shards, 3, 0)
	resp, body := postGather(t, ts.URL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if body != oracleBody(t) {
		t.Fatalf("retried answer differs from oracle: %s", body)
	}
	if shards[1].hits.Load() < 2 {
		t.Fatalf("flaky shard was hit %d times, want >= 2", shards[1].hits.Load())
	}
}

// Shard timeout mid-gather: the slow shard exceeds the client
// timeout; the query fails with 502 rather than hanging or answering
// without the slow partition.
func TestGatherShardTimeout(t *testing.T) {
	shards := []*fakeShard{
		newFakeShard(t, 0, 2, 7),
		newFakeShard(t, 1, 2, 7),
	}
	block := make(chan struct{})
	defer close(block)
	shards[1].serve(func(w http.ResponseWriter, r *http.Request) {
		<-block
	})
	urls := []string{shards[0].ts.URL, shards[1].ts.URL}
	g, err := NewShardGather(urls, &http.Client{Timeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	g.attempts = 1
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)
	resp, body := postGather(t, ts.URL)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d (%s), want 502", resp.StatusCode, body)
	}
	if !strings.Contains(body, "shard 1") {
		t.Fatalf("error does not name the timed-out shard: %s", body)
	}
}

// Stale epoch: one shard answers at an older warehouse version. The
// gather must never merge it — it retries the scatter and, if the
// skew persists, answers 503.
func TestGatherStaleEpochNeverMerged(t *testing.T) {
	shards := []*fakeShard{
		newFakeShard(t, 0, 2, 8),
		newFakeShard(t, 1, 2, 7), // one reload behind
	}
	// No skew retries: a single scatter, then 503.
	resp, body := postGather(t, gatherOver(t, shards, 1, 0).URL)
	if resp.StatusCode != http.StatusServiceUnavailable || shards[0].hits.Load() != 1 || shards[1].hits.Load() != 1 {
		t.Fatalf("no skew retries: status %d (%s) after %d/%d hits, want 503 after 1/1",
			resp.StatusCode, body, shards[0].hits.Load(), shards[1].hits.Load())
	}
	shards[0].hits.Store(0)
	shards[1].hits.Store(0)

	ts := gatherOver(t, shards, 1, 2)
	resp, body = postGather(t, ts.URL)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%s), want 503", resp.StatusCode, body)
	}
	if !strings.Contains(body, "epoch") {
		t.Fatalf("error does not mention epochs: %s", body)
	}
	// The scatter was retried: each shard was asked more than once.
	if shards[0].hits.Load() != 3 || shards[1].hits.Load() != 3 {
		t.Fatalf("scatter retries = %d/%d hits, want 3/3", shards[0].hits.Load(), shards[1].hits.Load())
	}

	// The skewed shard catching up mid-retry lets the query succeed.
	shards[1].serve(func(w http.ResponseWriter, r *http.Request) {
		writePartial(w, partialFor(t, 1, 2, 8))
	})
	shards[0].serve(func(w http.ResponseWriter, r *http.Request) {
		writePartial(w, partialFor(t, 0, 2, 8))
	})
	resp, body = postGather(t, ts.URL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after catch-up: status %d (%s)", resp.StatusCode, body)
	}
}

// A miswired fleet — a shard reporting an index that contradicts its
// position in the ring — must fail queries, not mis-assign a
// partition.
func TestGatherRejectsMiswiredTopology(t *testing.T) {
	shards := []*fakeShard{
		newFakeShard(t, 0, 2, 7),
		newFakeShard(t, 0, 2, 7), // duplicate index 0
	}
	ts := gatherOver(t, shards, 1, 0)
	resp, body := postGather(t, ts.URL)
	if resp.StatusCode != http.StatusServiceUnavailable && resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d (%s), want 5xx refusal", resp.StatusCode, body)
	}
}

// A shard's own 4xx (say, an aggregate the planner does not know) is
// forwarded to the client as-is, not retried.
func TestGatherForwardsShardRejection(t *testing.T) {
	const rejection = `{"error":"olap: unknown aggregate \"MEDIAN\""}`
	shards := []*fakeShard{newFakeShard(t, 0, 1, 7)}
	shards[0].serve(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusUnprocessableEntity)
		fmt.Fprintln(w, rejection)
	})
	ts := gatherOver(t, shards, 3, 0)
	resp, body := postGather(t, ts.URL)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", resp.StatusCode)
	}
	if body != rejection+"\n" {
		t.Fatalf("shard's rejection body was not forwarded verbatim: %s", body)
	}
	if shards[0].hits.Load() != 1 {
		t.Fatalf("4xx was retried: %d hits", shards[0].hits.Load())
	}
}

// An int SUM that leaves int64 only once the shards' sums add up fails
// the merged answer, which the gather answers as the single node does:
// 422 and its JSON error body, not a 502 of the merge.
func TestGatherAnswersTailErrorAsTheSingleNode(t *testing.T) {
	aggs := []xlm.AggSpec{{Out: "total", Func: "SUM", Col: "units"}}
	shards := make([]*fakeShard, 2)
	for i, v := range []int64{math.MaxInt64, 1} {
		agg, err := engine.NewHashAggregator(nil, aggs, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		if err := agg.Add([][]expr.Value{{expr.Int(v)}}); err != nil {
			t.Fatal(err)
		}
		pr := shard.EncodePartial(i, 2, 7, []string{"total"}, 0, aggs, agg.Partials())
		shards[i] = newFakeShard(t, i, 2, 7)
		shards[i].serveBytes(frameOf(t, pr))
	}
	resp, body := postGather(t, gatherOver(t, shards, 1, 0).URL)
	const want = `{"error":"aggregation SUM \"total\" overflows int64"}` + "\n"
	if resp.StatusCode != http.StatusUnprocessableEntity || body != want || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("status %d %q (%s), want 422 %s", resp.StatusCode, resp.Header.Get("Content-Type"), body, want)
	}
}

// frameOf is a fake shard's answer as bytes.
func frameOf(t *testing.T, pr *shard.PartialResponse) []byte {
	t.Helper()
	frame, err := pr.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// serveBytes makes a fake shard answer 200 with body.
func (fs *fakeShard) serveBytes(body []byte) {
	fs.serve(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(body)
	})
}

// wantShard502 posts a query and expects the 502 that names shard 1.
func wantShard502(t *testing.T, url, what string) string {
	t.Helper()
	resp, body := postGather(t, url)
	if resp.StatusCode != http.StatusBadGateway || !strings.Contains(body, "shard 1") {
		t.Fatalf("%s: status %d (%s), want a 502 naming shard 1", what, resp.StatusCode, body)
	}
	return body
}

// TestGatherRefusesCorruptFrames: a partial frame damaged anywhere —
// every single-byte flip of a real one — fails the query with a 502
// naming the shard, never a 200 with whatever the damage decoded to.
func TestGatherRefusesCorruptFrames(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, 0, 2, 7), newFakeShard(t, 1, 2, 7)}
	ts := gatherOver(t, shards, 1, 0)
	frame := frameOf(t, partialFor(t, 1, 2, 7))
	for i := range frame {
		flipped := append([]byte(nil), frame...)
		flipped[i] ^= 0xff
		shards[1].serveBytes(flipped)
		wantShard502(t, ts.URL, fmt.Sprintf("byte %d of %d flipped", i, len(frame)))
	}
	shards[1].serveBytes(frame)
	if resp, body := postGather(t, ts.URL); resp.StatusCode != http.StatusOK {
		t.Fatalf("the undamaged frame: status %d (%s)", resp.StatusCode, body)
	}
}

// TestGatherRefusesOtherFrameVersions: a shard of another build — a
// frame of another version, or the JSON body partial answers had
// before the frame — is a 502 whose message names both versions, not
// the epoch skew a rescatter could heal.
func TestGatherRefusesOtherFrameVersions(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, 0, 2, 7), newFakeShard(t, 1, 2, 7)}
	ts := gatherOver(t, shards, 1, 2)
	frame := frameOf(t, partialFor(t, 1, 2, 7))
	frame[4]++ // the version byte, after the four-byte magic
	body := frame[:len(frame)-4]
	shards[1].serveBytes(binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli))))
	msg := wantShard502(t, ts.URL, "a frame of the next version")
	if want := fmt.Sprintf("version %d, this build reads version %d", frame[4], frame[4]-1); !strings.Contains(msg, want) {
		t.Fatalf("the 502 does not name both versions (%q): %s", want, msg)
	}
	if shards[1].hits.Load() != 1 {
		t.Fatalf("a version mismatch was rescattered: %d hits", shards[1].hits.Load())
	}
	shards[1].serveBytes([]byte(`{"shard_index":1,"shard_count":2,"epoch":7,"columns":["g","n","total"],"group_cols":1,` +
		`"aggs":[{"func":"COUNT","out":"n"},{"func":"SUM","out":"total"}],"groups":{"n":0,"keys":[{"k":"null"}],"states":[{"counts":[]},{"counts":[]}]}}`))
	wantShard502(t, ts.URL, "a JSON body")
}

// The gather rejects writes and unrelated endpoints outright.
func TestGatherRejectsWrites(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, 0, 1, 7)}
	ts := gatherOver(t, shards, 1, 0)
	resp, err := http.Post(ts.URL+"/api/run", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("POST /api/run: status %d, want 403", resp.StatusCode)
	}
}

// The health endpoint reports per-shard liveness and epochs.
func TestGatherHealth(t *testing.T) {
	shards := []*fakeShard{
		newFakeShard(t, 0, 2, 9),
		newFakeShard(t, 1, 2, 9),
	}
	shards[1].ts.Close()
	ts := gatherOver(t, shards, 1, 0)
	resp, err := http.Get(ts.URL + "/api/health")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Status string `json:"status"`
		Role   string `json:"role"`
		Shards []struct {
			Healthy bool   `json:"healthy"`
			Epoch   uint64 `json:"epoch"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if body.Status != "degraded" || body.Role != "shard-gather" {
		t.Fatalf("health = %+v", body)
	}
	if len(body.Shards) != 2 || !body.Shards[0].Healthy || body.Shards[1].Healthy {
		t.Fatalf("per-shard health wrong: %+v", body.Shards)
	}
	if body.Shards[0].Epoch != 9 {
		t.Fatalf("shard 0 epoch = %d, want 9", body.Shards[0].Epoch)
	}
}

// busyShard makes a fake shard answer 429 + Retry-After while
// shedding holds — admission control on a healthy shard.
func busyShard(fs *fakeShard, shedding *atomic.Bool, index, count int, epoch uint64, t *testing.T) {
	fs.serve(func(w http.ResponseWriter, r *http.Request) {
		if shedding.Load() {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"shed":true}`, http.StatusTooManyRequests)
			return
		}
		writePartial(w, partialFor(t, index, count, epoch))
	})
}

// sleeplessGather builds a gather that tries each shard once and
// allows busyRetries busy rounds, with its sleep stubbed out so
// busy-backoff tests run instantly; onSleep may mutate fleet state to
// simulate draining during the backoff.
func sleeplessGather(t *testing.T, shards []*fakeShard, busyRetries int, onSleep func()) (*ShardRouter, *httptest.Server) {
	t.Helper()
	urls := make([]string, len(shards))
	for i, s := range shards {
		urls[i] = s.ts.URL
	}
	g, err := NewShardGather(urls, &http.Client{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	g.attempts, g.busyRetries = 1, busyRetries
	g.sleep = func(ctx context.Context, d time.Duration) bool {
		if d <= 0 || d > maxRetryAfter {
			t.Errorf("backoff %v outside (0, %v]", d, maxRetryAfter)
		}
		if onSleep != nil {
			onSleep()
		}
		return true
	}
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)
	return g, ts
}

// TestGatherWholeFleetBusyFailsFast: when EVERY shard sheds, a retry
// could only re-offer the load that caused it — the gather answers an
// aggregated 429 + Retry-After immediately, with no backoff sleep and
// exactly one scatter, and never a 502.
func TestGatherWholeFleetBusyFailsFast(t *testing.T) {
	var shedding atomic.Bool
	shedding.Store(true)
	shards := []*fakeShard{
		newFakeShard(t, 0, 2, 7),
		newFakeShard(t, 1, 2, 7),
	}
	busyShard(shards[0], &shedding, 0, 2, 7, t)
	busyShard(shards[1], &shedding, 1, 2, 7, t)
	_, ts := sleeplessGather(t, shards, 3, func() {
		t.Error("gather slept on a whole-fleet-busy scatter; it must fail fast")
	})
	resp, body := postGather(t, ts.URL)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want aggregated 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("aggregated 429 carries no Retry-After")
	}
	if shards[0].hits.Load() != 1 || shards[1].hits.Load() != 1 {
		t.Fatalf("scatter count = %d/%d hits, want 1/1 (no busy retries)", shards[0].hits.Load(), shards[1].hits.Load())
	}
}

// TestGatherPartialBusyRetriesAndSucceeds: one shard shedding while
// its siblings answer triggers a jittered whole-scatter retry; once
// the busy shard drains during the backoff, the query completes with
// the full merged answer.
func TestGatherPartialBusyRetriesAndSucceeds(t *testing.T) {
	var shedding atomic.Bool
	shedding.Store(true)
	shards := []*fakeShard{
		newFakeShard(t, 0, 2, 7),
		newFakeShard(t, 1, 2, 7),
	}
	busyShard(shards[1], &shedding, 1, 2, 7, t)
	_, ts := sleeplessGather(t, shards, 1, func() {
		shedding.Store(false) // the shard drains during the backoff
	})
	resp, body := postGather(t, ts.URL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s), want the retried scatter to succeed", resp.StatusCode, body)
	}
	if body != oracleBody(t) {
		t.Fatalf("merged answer differs from oracle after busy retry: %s", body)
	}
	if shards[1].hits.Load() != 2 {
		t.Fatalf("busy shard hit %d times, want 2 (shed, then served)", shards[1].hits.Load())
	}
}

// TestGatherBusyBudgetExhausts429: a shard that keeps shedding past
// the busy budget turns the query into an aggregated 429 — busy is
// never reported as the 502 outage contract reserved for dead shards.
func TestGatherBusyBudgetExhausts429(t *testing.T) {
	var shedding atomic.Bool
	shedding.Store(true)
	shards := []*fakeShard{
		newFakeShard(t, 0, 2, 7),
		newFakeShard(t, 1, 2, 7),
	}
	busyShard(shards[1], &shedding, 1, 2, 7, t)
	var slept atomic.Int64
	_, ts := sleeplessGather(t, shards, 1, func() {
		slept.Add(1)
	})
	resp, body := postGather(t, ts.URL)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want 429 after busy budget", resp.StatusCode, body)
	}
	if !strings.Contains(body, "busy") {
		t.Fatalf("429 body does not say busy: %s", body)
	}
	if slept.Load() != 1 {
		t.Fatalf("gather slept %d times, want exactly the busy budget (1)", slept.Load())
	}
	if shards[1].hits.Load() != 2 {
		t.Fatalf("busy shard hit %d times, want 2 (initial + 1 budgeted retry)", shards[1].hits.Load())
	}
}

// TestOutcomeClassification is the fleet core's one table: what a
// backend did → the outcome do() reports, and what each policy makes of
// that outcome over a one-backend fleet with busy retries off — the
// status the client sees and, for the replica router, whether the
// backend was demoted. The gather has no health state to demote in.
func TestOutcomeClassification(t *testing.T) {
	status := func(code int) func(http.ResponseWriter, *http.Request) {
		return func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"the backend's own words"}`, code)
		}
	}
	for _, tc := range []struct {
		name    string
		backend func(http.ResponseWriter, *http.Request) // nil: nothing listens
		want    outcome
		replica int  // status through the replica router
		demoted bool // ...and whether it demoted the backend
		gather  int  // status through the shard gather
	}{
		{"200", func(w http.ResponseWriter, r *http.Request) { writePartial(w, partialFor(t, 0, 1, 7)) },
			answered, 200, false, 200},
		{"400", status(400), answered, 400, false, 400},
		{"422", status(422), answered, 422, false, 422},
		{"429", status(429), busy, 429, false, 429},
		{"503", status(503), busy, 429, false, 429},
		{"500", status(500), unwell, 502, true, 502},
		{"502", status(502), unwell, 502, true, 502},
		{"504", status(504), answered, 504, false, 504},
		{"transport error", nil, unwell, 502, true, 502},
		{"unreadable body", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", "100") // and then 5 bytes
			w.Write([]byte("short"))
		}, unwell, 502, true, 502},
	} {
		t.Run(tc.name, func(t *testing.T) {
			be := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/api/health" {
					fmt.Fprint(w, `{"status":"ok"}`)
					return
				}
				tc.backend(w, r)
			}))
			t.Cleanup(be.Close)
			if tc.backend == nil {
				be.Close()
			}

			rt, err := New([]string{be.URL}, nil)
			if err != nil {
				t.Fatal(err)
			}
			rt.busyRetries = 0
			rq := request{method: http.MethodPost, uri: "/api/olap", header: http.Header{}, body: []byte("q")}
			if got := rt.do(context.Background(), rt.backends[0], rq).outcome; got != tc.want {
				t.Errorf("do() outcome = %d, want %d", got, tc.want)
			}
			if !rt.backends[0].healthy.Load() {
				t.Error("do() itself demoted the backend: demotion is a policy's call")
			}

			ring := httptest.NewServer(rt.Handler())
			t.Cleanup(ring.Close)
			if got, body := postOLAP(t, ring.URL, "q"); got != tc.replica {
				t.Errorf("replica router = %d (%s), want %d", got, body, tc.replica)
			} else if tc.want == answered && tc.replica >= 400 && !strings.Contains(body, "the backend's own words") {
				t.Errorf("replica router did not forward the backend's verdict verbatim: %s", body)
			}
			if got := !rt.backends[0].healthy.Load(); got != tc.demoted {
				t.Errorf("replica router demoted = %v, want %v", got, tc.demoted)
			}

			_, gather := sleeplessGather(t, []*fakeShard{{ts: be}}, 0, nil)
			resp, body := postGather(t, gather.URL)
			if resp.StatusCode != tc.gather {
				t.Errorf("shard gather = %d (%s), want %d", resp.StatusCode, body, tc.gather)
			} else if tc.want == answered && tc.gather >= 400 && !strings.Contains(body, "the backend's own words") {
				t.Errorf("shard gather did not forward the shard's verdict verbatim: %s", body)
			}
			if tc.want == busy && resp.Header.Get("Retry-After") == "" {
				t.Error("aggregated 429 carries no Retry-After")
			}
		})
	}
}
