package trace

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Parent: 0, StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, StartNs: 30, EndNs: 60},  // overlaps 2: 30..40 counted once
		{ID: 4, Parent: 1, StartNs: 90, EndNs: 120}, // clipped to the parent's end
		{ID: 5, Parent: 2, StartNs: 15, EndNs: 20},
	}
	self := SelfTimes(spans)
	want := map[int]time.Duration{1: 100 - 50 - 10, 2: 25, 3: 30, 4: 30, 5: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
}

func TestRecorder(t *testing.T) {
	r := NewRecorder()
	root := r.Start("root", "q", 0)
	kid := r.Start("kid", "q", root)
	r.End(kid)
	r.End(root)
	s := r.Spans()
	if len(s) != 2 || s[0].ID != 1 || s[1].Parent != 1 || s[1].Query != "q" {
		t.Fatalf("spans = %+v", s)
	}
	if s[0].EndNs < s[1].EndNs || s[1].StartNs < s[0].StartNs {
		t.Errorf("child not inside parent: %+v", s)
	}
}

func TestPercentile(t *testing.T) {
	v := []float64{5, 1, 3, 2, 4}
	if got := Median(v); got != 3 {
		t.Errorf("median = %v", got)
	}
	if v[0] != 5 {
		t.Error("Percentile sorted its argument")
	}
	if got := Percentile(v, 0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := Percentile(v, 1); got != 5 {
		t.Errorf("p100 = %v", got)
	}
	if got := Percentile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Errorf("interpolated median = %v", got)
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Error("percentile of nothing is not NaN")
	}
}

func TestSupportsPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{199, 0.95, false}, {200, 0.95, true}, {1000, 0.99, true}, {999, 0.99, false}, {20, 0.5, true}, {19, 0.5, false}} {
		if got := SupportsPercentile(c.n, c.p); got != c.want {
			t.Errorf("SupportsPercentile(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}
