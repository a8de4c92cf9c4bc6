// Package trace holds what the driver and the traced in-process run
// share: spans kept in memory and written when the run ends, self-time
// arithmetic, and the percentile rule.
package trace

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call at a layer boundary. Parent is the ID of the
// span that caused it (0 for a root); spans of one request or query
// share Query.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Query   string `json:"query"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// Dur is the span's duration.
func (s Span) Dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// Recorder collects spans in memory. It is safe for concurrent use; a
// nil *Recorder records nothing, so untraced code paths need no
// branches.
type Recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

// NewRecorder starts a recorder; span times are relative to now.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Start opens a span and returns its ID (IDs start at 1).
func (r *Recorder) Start(name, query string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Query: query, Name: name, StartNs: now, EndNs: now})
	return id
}

// End closes a span and returns its duration.
func (r *Recorder) End(id int) time.Duration {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.EndNs = now
	return s.Dur()
}

// Spans returns a copy of the recorded spans.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// SelfTimes returns each span's self time by ID: its duration minus
// the part of its interval its child spans cover (overlapping children
// are counted once; a child is clipped to its parent's interval).
func SelfTimes(spans []Span) map[int]time.Duration {
	children := map[int][]Span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = time.Duration(s.EndNs - s.StartNs - covered)
	}
	return out
}

// WriteFile writes the spans as a JSON array.
func WriteFile(path string, spans []Span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Percentile returns the p-quantile (0 <= p <= 1) of the values by
// linear interpolation between closest ranks; NaN for no values. It
// sorts a copy.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// Median is Percentile(values, 0.5).
func Median(values []float64) float64 { return Percentile(values, 0.5) }

// MinTailSamples is how many samples must lie beyond a reported tail
// percentile.
const MinTailSamples = 10

// SupportsPercentile reports whether n samples leave at least
// MinTailSamples beyond the p-quantile: p95 needs 200 samples.
func SupportsPercentile(n int, p float64) bool {
	return float64(n)*(1-p) >= MinTailSamples-1e-9
}
