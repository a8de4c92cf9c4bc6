package storage

// Zone-map pruning cursors: a Cursor streams a TableView's rows in
// position order like ReadBatch, but takes a set of pushed-down
// filter conjuncts (column OP literal) and skips — without decoding —
// every page whose zone map proves no row in it can satisfy them all.
//
// Pruning is strictly conservative: a page is skipped only when the
// predicate can match NONE of its rows under the evaluator's own
// semantics (expr.Value.Compare / Equal — the zone bounds were
// computed with the same Compare, so float-vs-int coercion agrees),
// and the uncommitted tail, which has no zone map, is never skipped.
// Callers therefore still evaluate the full filter on every returned
// row; the cursor only removes pages that could not have contributed.
// Unlike ReadBatch, Next may return short batches (it never stitches
// across page boundaries) — callers loop until nil.
//
// A cursor is read in one of two forms, over the same pages, with the
// same pruning and the same Stats: Next hands out rows (exports and
// the tools outside the engine), NextVectors hands out a chunk — a
// page — at a time as typed column vectors, for the asked columns only
// (the OLAP fast path and the ETL executor; see vector.go).

import (
	"sync/atomic"

	"quarry/internal/expr"
)

// zoneMapPruning globally gates page skipping; on by default.
// Disabling it (SetZoneMapPruning) turns every Cursor into a plain
// full scan — the A/B lever for benchmarks and the prune-vs-full-scan
// property tests.
var zoneMapPruning atomic.Bool

func init() { zoneMapPruning.Store(true) }

// SetZoneMapPruning toggles zone-map page pruning globally, returning
// the previous setting. Pruning never changes results — only how many
// pages are decoded — so the toggle exists for benchmarks and tests.
func SetZoneMapPruning(on bool) bool { return zoneMapPruning.Swap(on) }

// PrunePredicate is one pushed-down conjunct of the form
// `column OP literal`. Op is spelled "=", "!=", "<", "<=", ">" or
// ">=". The predicate must be a conjunct of the caller's filter:
// the cursor skips pages where it can never hold.
type PrunePredicate struct {
	Col string
	Op  string
	Val expr.Value
}

// canMatch reports whether any row of a page with this zone entry
// could satisfy p. nrows is the page's row count. Unknown operators
// and incomparable bounds answer true (never skip on uncertainty).
func (z *zone) canMatch(nrows int, p *PrunePredicate) bool {
	if nrows-z.nulls <= 0 {
		// Every value is NULL: `NULL OP literal` is NULL, which no
		// EvalBool accepts.
		return false
	}
	if p.Val.IsNull() {
		// `col OP NULL` is NULL for every row, comparable or not.
		return false
	}
	if !z.hasBounds {
		return true
	}
	cmin, errMin := z.min.Compare(p.Val)
	cmax, errMax := z.max.Compare(p.Val)
	if errMin != nil || errMax != nil {
		// Incomparable kinds (e.g. string column, int literal). For
		// "=" Equal is false for every row — skip; for "!=" it is
		// true for every present row — keep; ordering comparisons
		// error at evaluation time, and pruning must not hide that.
		return p.Op != "="
	}
	switch p.Op {
	case "=":
		return cmin <= 0 && cmax >= 0
	case "!=":
		// Skip only when every present value IS the literal.
		return !(cmin == 0 && cmax == 0)
	case "<":
		return cmin < 0
	case "<=":
		return cmin <= 0
	case ">":
		return cmax > 0
	case ">=":
		return cmax >= 0
	}
	return true
}

// resolvedPred is a predicate bound to its physical column index.
type resolvedPred struct {
	ci int
	p  PrunePredicate
}

// Cursor streams a TableView's rows in position order, skipping
// prunable pages. Not safe for concurrent use.
type Cursor struct {
	view  *TableView
	preds []resolvedPred

	seg  int // current segment index in view.pg
	page int // current page within the segment
	off  int // rows of the current page already returned
	tail int // rows of the uncommitted tail already returned

	scratch []*Vector // NextVectors' tail vectors, reused per chunk
	reused  bool      // the last NextVectors call handed out scratch

	pagesRead    int
	pagesSkipped int
}

// Cursor returns a pruning cursor over the view. Predicates naming
// columns the view lacks are ignored (they can never skip a page).
func (v *TableView) Cursor(preds []PrunePredicate) *Cursor {
	c := &Cursor{view: v}
	for _, p := range preds {
		if ci, ok := v.by[p.Col]; ok {
			c.preds = append(c.preds, resolvedPred{ci: ci, p: p})
		}
	}
	return c
}

// skip reports whether the page's zone map proves no row satisfies
// every predicate.
func (c *Cursor) skip(pm *pageMeta) bool {
	if len(c.preds) == 0 || pm.zones == nil || !zoneMapPruning.Load() {
		return false
	}
	for i := range c.preds {
		rp := &c.preds[i]
		if rp.ci >= len(pm.zones) {
			continue
		}
		if !pm.zones[rp.ci].canMatch(pm.rows, &rp.p) {
			return true
		}
	}
	return false
}

// advance moves to the next page the zone maps do not prune, counting
// it read and every page passed over skipped, and leaves c.seg/c.page
// on it. It reports false once the segments are exhausted.
func (c *Cursor) advance() (*segment, bool) {
	pg := c.view.pg
	if pg == nil {
		return nil, false
	}
	for c.seg < len(pg.segs) {
		s := pg.segs[c.seg]
		if c.page >= len(s.pages) {
			c.seg++
			c.page = 0
			continue
		}
		if c.skip(&s.pages[c.page]) {
			c.pagesSkipped++
			c.page++
			continue
		}
		c.pagesRead++
		return s, true
	}
	return nil, false
}

// Next returns the next batch of at most max rows, or nil at the end.
// Batches may be shorter than max (page remainders are returned as
// shared subslices, never reassembled); the tail is returned last and
// is never pruned. The returned slice is an immutable shared view.
func (c *Cursor) Next(max int) []Row {
	if max <= 0 {
		return nil
	}
	var s *segment
	ok := c.off > 0 // part-way through the page c.seg/c.page name
	if ok {
		s = c.view.pg.segs[c.seg]
	} else {
		s, ok = c.advance()
	}
	if ok {
		rows := s.page(c.page)
		n := len(rows) - c.off
		if n > max {
			n = max
		}
		out := rows[c.off : c.off+n : c.off+n]
		c.off += n
		if c.off >= len(rows) {
			c.page++
			c.off = 0
		}
		return out
	}
	if c.tail < len(c.view.rows) {
		n := len(c.view.rows) - c.tail
		if n > max {
			n = max
		}
		out := c.view.rows[c.tail : c.tail+n : c.tail+n]
		c.tail += n
		return out
	}
	return nil
}

// tailChunk is how many tail rows NextVectors transposes at a time.
const tailChunk = 1024

// NextVectors is the chunk-at-a-time read of the vector readers: it
// fills out[i] with the vector of column cols[i] (a physical position)
// over the next unpruned page — whole pages only, so a cursor is read
// either through Next or through NextVectors, not both — and returns
// the chunk's row count, 0 at the end. Page vectors are decoded on
// first use, for the asked columns only, and shared through the buffer
// pool; the uncommitted tail holds rows only and is transposed a
// tailChunk at a time into vectors the cursor reuses.
// Either way the vectors are read-only and valid until the next call.
func (c *Cursor) NextVectors(cols []int, out []*Vector) int {
	c.reused = false
	if s, ok := c.advance(); ok {
		s.vectors(c.page, cols, out)
		n := s.pages[c.page].rows
		c.page++
		return n
	}
	rows := c.view.rows[c.tail:]
	if len(rows) > tailChunk {
		rows = rows[:tailChunk]
	}
	if len(rows) == 0 {
		return 0
	}
	c.tail += len(rows)
	c.reused = true
	for len(c.scratch) < len(cols) {
		c.scratch = append(c.scratch, &Vector{})
	}
	for i, ci := range cols {
		out[i] = c.scratch[i]
		out[i].transposeRows(rows, ci, c.view.cols[ci].Type)
	}
	return len(rows)
}

// Reused reports whether the vectors of the last NextVectors call are
// the cursor's own tail vectors, which the next call refills, rather
// than page vectors that stay valid.
func (c *Cursor) Reused() bool { return c.reused }

// Stats reports how many pages the cursor decoded and how many its
// zone maps pruned (so far).
func (c *Cursor) Stats() (pagesRead, pagesSkipped int) {
	return c.pagesRead, c.pagesSkipped
}
