package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"quarry/bench/trace"
)

// op is one HTTP request of a round. A 2xx answer whose status is
// want (0: any 2xx) and whose body hashes to wantHash (when set) is a
// success; everything else counts in failed.
type op struct {
	shape       string
	method, url string
	contentType string
	body        []byte
	want        int
	wantHash    string
}

// sample is the client's view of one completed op.
type sample struct {
	shape string
	class string // X-Quarry-Class of the answer, "" when absent
	ms    float64
	err   error
}

func hashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// canonicalHash hashes an /api/olap answer after a decode/encode
// round trip, so answers from different encoders (quarryd and the
// gather router) compare by content.
func canonicalHash(body []byte) (string, error) {
	var v struct {
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		return "", fmt.Errorf("decoding answer: %w", err)
	}
	if v.Columns == nil || v.Rows == nil {
		return "", fmt.Errorf("answer lacks columns or rows: %s", firstLine(body))
	}
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return hashBytes(b), nil
}

// execOp sends one op and judges the answer. rec, when non-nil,
// records client-side spans for it.
func execOp(ctx context.Context, c *http.Client, o op, rec *trace.Recorder, id string) sample {
	root := rec.Start("request."+o.shape, id, 0)
	span := rec.Start("http.roundtrip", id, root)
	start := time.Now()
	status, hdr, body, err := do(ctx, c, o.method, o.url, o.contentType, o.body)
	s := sample{shape: o.shape, ms: float64(time.Since(start).Nanoseconds()) / 1e6}
	rec.End(span)
	span = rec.Start("check.answer", id, root)
	switch {
	case err != nil:
		s.err = err
	case o.want != 0 && status != o.want, o.want == 0 && (status < 200 || status > 299):
		s.err = fmt.Errorf("%s %s: status %d: %s", o.method, o.url, status, firstLine(body))
	case o.wantHash != "" && hashBytes(body) != o.wantHash:
		s.err = fmt.Errorf("%s %s (%s): answer differs from the verified one", o.method, o.url, o.shape)
	}
	if hdr != nil {
		s.class = hdr.Get("X-Quarry-Class")
	}
	rec.End(span)
	rec.End(root)
	return s
}

// runRound is one closed-loop round: clients workers each take the
// next op of the round when their previous answer has arrived, until
// the round is drained. With one client the ops run in order. It
// returns the samples in op order and the round's wall time.
func runRound(ctx context.Context, c *http.Client, ops []op, clients int, rec *trace.Recorder, roundID int) ([]sample, time.Duration) {
	out := make([]sample, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) || ctx.Err() != nil {
					return
				}
				out[i] = execOp(ctx, c, ops[i], rec, strconv.Itoa(roundID)+"."+strconv.Itoa(i))
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// window is what a measured window of whole rounds produced.
type window struct {
	samples    []sample
	roundRates []float64 // successful ops per second, one per round
	probeMs    []float64 // the host probe's times, about two a second
}

// refRate is the window's throughput at the reference host speed: the
// median round's rate, corrected by the median probe.
func (w window) refRate() float64 {
	return refRate(trace.Median(w.roundRates), trace.Median(w.probeMs))
}

// measure replays the round until d has elapsed (always at least one
// round), so that the window is a whole number of identical rounds.
// Between rounds, about twice a second, it times the host probe.
func measure(ctx context.Context, c *http.Client, ops []op, clients int, d time.Duration, rec *trace.Recorder) window {
	var w window
	var probed time.Time
	start := time.Now()
	for r := 0; r == 0 || time.Since(start) < d; r++ {
		samples, wall := runRound(ctx, c, ops, clients, rec, r)
		ok := 0
		for _, s := range samples {
			if s.err == nil {
				ok++
			}
		}
		w.samples = append(w.samples, samples...)
		w.roundRates = append(w.roundRates, float64(ok)/wall.Seconds())
		if ctx.Err() != nil {
			break
		}
		if time.Since(probed) >= probeEvery {
			w.probeMs = append(w.probeMs, probeHost())
			probed = time.Now()
		}
	}
	return w
}
