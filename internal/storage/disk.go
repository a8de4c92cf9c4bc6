package storage

// The segment store: a paged columnar layout behind the
// DB/Table/Snapshot API, with a directory (Open) or without one
// (NewMemDB).
//
// Layout of a storage directory:
//
//	manifest.json   the committed catalog: for every table its column
//	                definitions and ordered segment list (file name,
//	                row count, page directory), plus the DB version
//	seg-NNNNNNNN.qseg  immutable segment files (see page.go)
//
// A table's rows are the concatenation of its manifest segments
// followed by its uncommitted tail (the column-vector chunks appended
// since the last commit, tail.go). A commit cuts and encodes pages
// straight from those chunks. Replace-mode publishes write whole new
// segments; appends become delta segments — segments are never
// rewritten in place.
//
// Commit protocol (the crash-safety story):
//
//  1. encode, write + fsync every new segment file of the commit — all
//     of them together, in parallel (writeSegments; they are orphans
//     until referenced — a crash here loses nothing) — then fsync the
//     directory so their entries are durable before the manifest can
//     name them,
//  2. write + fsync manifest.tmp with the complete new catalog,
//  3. rename(manifest.tmp, manifest.json) and fsync the directory —
//     the SINGLE atomic commit point,
//  4. only then swap the in-memory pagers and delete segment files
//     the new manifest no longer references (purging their decoded
//     pages, which pin the dead segments' file descriptors, from the
//     buffer pool).
//
// A crash anywhere before step 3 leaves manifest.json describing the
// previous committed version; Open discards orphaned segments and
// rehydrates that version. A failed commit inside a live process
// likewise leaves the DB's in-memory state untouched, preserving
// Publish's "failed runs leave live tables byte-identical"
// contract. Snapshots taken before a commit keep reading their old
// segments even after the files are unlinked: every segment holds its
// file handle open for the segment object's lifetime.
//
// One process per directory: the store takes no lock file; opening
// the same directory from two processes is unsupported.
//
// A store without a directory runs the same commit. Its segments are
// heap segments — the bytes a segment file would hold, padding
// included, kept in memory — and it skips only what means nothing
// without a directory: the files and their fsyncs, the manifest, and
// the directory scan of the garbage collector.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"quarry/internal/expr"
	mf "quarry/internal/storage/manifest"
)

// The manifest schema and the fsync+rename commit point live in the
// transport-agnostic internal/storage/manifest package (shared with
// internal/replication, which ships catalogs between machines through
// the same primitives). The aliases below keep this file — and the
// format tests — reading naturally.
const (
	manifestName     = mf.FileName
	manifestTmp      = mf.TmpName
	manifestFormatV2 = mf.FormatV2
	segPrefix        = mf.SegPrefix
	segSuffix        = mf.SegSuffix
)

type (
	manifest        = mf.Manifest
	manifestTable   = mf.Table
	manifestSegment = mf.Segment
	manifestPage    = mf.Page
	manifestZone    = mf.Zone
	manifestValue   = mf.Value
)

// compactSegments bounds a table's segment count: when a commit would
// leave a table with more, it folds the table's segments and new rows
// into one freshly encoded segment. A variable so tests can lower it.
var compactSegments = 16

// TestingCommitFault is a fault-injection hook for tests: when set, it
// is consulted at the named commit stages and a non-nil error aborts
// the commit there. Two stages simulate a crash — "segments": all
// segment files written and synced, manifest untouched; "rename":
// manifest.tmp written and synced, final rename pending — so the files
// written so far are left behind as orphans for recovery to collect.
// Two simulate an I/O error on one segment — "write": before the
// segment's file is created; "sync": its pages written, fsync pending
// — and are consulted once per new segment, from the goroutines that
// write the segments concurrently (the hook must be safe for that); the
// commit fails as it would on the real error, removing every file it
// created. In all four the in-memory DB is not mutated and no file
// descriptor stays open. Only stores with a directory consult it.
// Never set outside tests.
var TestingCommitFault func(stage string) error

func commitFault(stage string) error {
	if TestingCommitFault == nil {
		return nil
	}
	return TestingCommitFault(stage)
}

// store is a database's segment store: its directory ("" for a store
// that keeps its segments on the heap), its buffer pool, and the lock
// that serializes its commits.
type store struct {
	dir string
	// commitMu serializes every commit (and therefore every catalog
	// mutation: all mutators commit). Holding it through the encoding
	// and the segment and manifest I/O keeps db.mu free for readers — a
	// Snapshot never waits on a commit's fsyncs, only on the brief
	// pointer-swap apply step. Lock order: commitMu before
	// db.mu before Table.mu; nothing acquires commitMu while holding
	// db.mu. nextSeg is guarded by commitMu.
	commitMu sync.Mutex
	nextSeg  uint64
	cache    *pageCache
	// encoders are the commit workers' scratch, kept from commit to
	// commit so that their buffers and seen maps, sized by the pages
	// encoded before, are not grown again by every commit. Guarded by
	// commitMu.
	encoders []chunkEncoder
}

func newStore(dir string) *store {
	return &store{dir: dir, cache: newPageCache(pageCacheBytes)}
}

// segment is one immutable run of rows. A file segment's open handle
// lives as long as the segment object: readers holding a pager keep
// their data readable even after a republish unlinks the file (the
// runtime closes the descriptor when the segment is collected). A heap
// segment has no file; its data is the bytes the file would hold.
type segment struct {
	st    *store   // owning store
	file  *os.File // nil for heap segments
	name  string   // base file name
	cols  []Column
	rows  int
	pages []pageMeta
	data  []byte // the heap bytes or the file's mapping; nil when read by pread
	entry []byte // its manifest entry, once rendered (manifestEntry)
}

// pageMeta locates one page inside a segment.
type pageMeta struct {
	off   int64
	size  int // padded size: a pageBlock multiple
	rows  int
	raw   int    // raw encoded size, recorded in the manifest
	zones []zone // per-column zone map
}

// tryMmap maps a file segment read-only as the page source; where the
// platform does not map, or mapping fails, the segment reads by pread.
// Decoded pages copy every value out of the buffer, so nothing aliases
// the mapping; it is unmapped when the segment object is collected.
func (s *segment) tryMmap() {
	if s.file == nil || len(s.pages) == 0 {
		return
	}
	last := s.pages[len(s.pages)-1]
	data := sysMmap(s.file, last.off+int64(last.size))
	if data == nil {
		return
	}
	s.data = data
	runtime.SetFinalizer(s, func(fs *segment) { sysMunmap(fs.data) })
}

// read returns page i's encoded bytes: a view of the heap bytes or the
// mapping, or a fresh buffer filled by pread.
func (s *segment) read(i int) []byte {
	pm := &s.pages[i]
	if s.data != nil {
		return s.data[pm.off : pm.off+int64(pm.size)]
	}
	buf := make([]byte, pm.size)
	if _, err := s.file.ReadAt(buf, pm.off); err != nil {
		panic(fmt.Sprintf("storage: segment %s page %d: %v", s.name, i, err))
	}
	return buf
}

// vectors fills out[j] with the vector of column cols[j] of page i,
// through the buffer pool: a column is decoded the first time a reader
// asks for it, beside the page's other resident columns. Segment
// structure is validated at write/open time, so a decode failure here
// means on-disk corruption — that is a panic, not an error: the read
// API has no error channel and silently returning fewer rows would
// corrupt results.
func (s *segment) vectors(i int, cols []int, out []*Vector) {
	k := pageKey{seg: s, page: i}
	if s.st.cache.vectors(k, cols, out) {
		return
	}
	want := make([]bool, len(s.cols))
	for j, ci := range cols {
		want[ci] = out[j] == nil
	}
	vecs, err := decodePageVectors(s.cols, s.read(i), s.pages[i].rows, want)
	if err != nil {
		panic(fmt.Sprintf("storage: segment %s page %d corrupt: %v", s.name, i, err))
	}
	s.st.cache.putVectors(k, vecs)
	for j, ci := range cols {
		if out[j] == nil {
			out[j] = vecs[ci]
		}
	}
}

// pager is an immutable view over an ordered segment list. Appends
// never mutate a pager — commits build an extended copy and swap it
// under the table lock — so snapshots and frozen views capture a
// pager pointer and are done.
type pager struct {
	segs []*segment
	rows int
}

func newPager(segs []*segment) *pager {
	p := &pager{segs: segs}
	for _, s := range segs {
		p.rows += s.rows
	}
	return p
}

// extend returns a new pager appending seg (sharing the existing
// segment prefix).
func (p *pager) extend(seg *segment) *pager {
	var segs []*segment
	if p != nil {
		segs = append(segs, p.segs...)
	}
	return newPager(append(segs, seg))
}

func (p *pager) numRows() int {
	if p == nil {
		return 0
	}
	return p.rows
}

// foreignTo reports whether any of the pager's segments belongs to a
// store other than st.
func (p *pager) foreignTo(st *store) bool {
	if p == nil {
		return false
	}
	for _, s := range p.segs {
		if s.st != st {
			return true
		}
	}
	return false
}

// referencedFiles lists the names of st's segments the pager
// references.
func (p *pager) referencedFiles(st *store, into map[string]bool) {
	if p == nil {
		return
	}
	for _, s := range p.segs {
		if s.st == st {
			into[s.name] = true
		}
	}
}

// chunks returns the pager's rows as chunks, a page each: the pages'
// vectors, every column, shared through the buffer pool.
func (p *pager) chunks() []*chunk {
	if p == nil {
		return nil
	}
	cols := p.segs[0].cols
	all := make([]int, len(cols))
	for ci := range all {
		all[ci] = ci
	}
	var out []*chunk
	cur := (&TableView{cols: cols, pg: p}).Cursor(nil)
	for {
		c := &chunk{cols: make([]*Vector, len(cols))}
		if c.n = cur.NextVectors(all, c.cols); c.n == 0 {
			return out
		}
		out = append(out, c)
	}
}

// The expr.Value ↔ manifest.Value conversions below stay here: the
// manifest package is pure catalog data, oblivious to the value
// representation.

func valueToManifest(v expr.Value) *manifestValue {
	switch v.Kind() {
	case expr.KindInt:
		i := v.AsInt()
		return &manifestValue{I: &i}
	case expr.KindFloat:
		f, _ := v.AsFloat()
		return &manifestValue{F: &f}
	case expr.KindString:
		s := v.AsString()
		return &manifestValue{S: &s}
	case expr.KindBool:
		b := v.AsBool()
		return &manifestValue{B: &b}
	}
	return nil
}

func zonesToManifest(zs []zone) []manifestZone {
	if len(zs) == 0 {
		return nil
	}
	out := make([]manifestZone, len(zs))
	for i, z := range zs {
		out[i] = manifestZone{Nulls: z.nulls}
		if z.hasBounds {
			out[i].Min = valueToManifest(z.min)
			out[i].Max = valueToManifest(z.max)
		}
	}
	return out
}

// pageFromManifest rehydrates one page-directory entry of a segment
// of cols, failing on anything this build could not have written. The
// entry is trusted from then on: its row count sizes every decode of
// the page, and its zone map decides which pages a cursor skips, so a
// wrong bound would drop qualifying rows without a word.
func pageFromManifest(mp manifestPage, cols []Column) (pageMeta, error) {
	pm := pageMeta{off: mp.Off, size: mp.Size, rows: mp.Rows, raw: mp.Raw}
	// Every page cutPages cuts holds its overhead, and a page of more
	// than one row fits pageSize — which also caps the row count (a
	// presence bit per row and column).
	if mp.Rows <= 0 || mp.Rows > 8*pageSize || mp.Raw < pageOverhead(len(cols), mp.Rows) ||
		(mp.Rows > 1 && mp.Raw > pageSize) {
		return pm, fmt.Errorf("%d rows in %d raw bytes is no page this build writes", mp.Rows, mp.Raw)
	}
	if len(mp.Zones) != len(cols) {
		return pm, fmt.Errorf("zone map has %d entries for %d columns", len(mp.Zones), len(cols))
	}
	pm.zones = make([]zone, len(cols))
	for ci, mz := range mp.Zones {
		z, err := zoneFromManifest(mz, cols[ci].Type, mp.Rows)
		if err != nil {
			return pm, fmt.Errorf("column %q: %w", cols[ci].Name, err)
		}
		pm.zones[ci] = z
	}
	return pm, nil
}

// zoneFromManifest rehydrates the zone-map entry of a column of type
// typ in a page of rows rows: a null count within the page, and either
// no bounds or both, each one value of the column's type, min not
// above max.
func zoneFromManifest(mz manifestZone, typ string, rows int) (zone, error) {
	z := zone{nulls: mz.Nulls}
	if mz.Nulls < 0 || mz.Nulls > rows {
		return z, fmt.Errorf("%d nulls in %d rows", mz.Nulls, rows)
	}
	if mz.Min == nil && mz.Max == nil {
		return z, nil
	}
	var err error
	if z.min, err = boundFromManifest(mz.Min, typ); err != nil {
		return z, fmt.Errorf("min: %w", err)
	}
	if z.max, err = boundFromManifest(mz.Max, typ); err != nil {
		return z, fmt.Errorf("max: %w", err)
	}
	if cmp, err := z.min.Compare(z.max); err != nil || cmp > 0 {
		return z, fmt.Errorf("min %s above max %s", z.min, z.max)
	}
	// Segments written before ints had an exact order hold int bounds
	// picked by their float64 image: at or beyond ±2⁵³, where several
	// ints share one, a bound may be another int than the extreme, so
	// such bounds prune nothing.
	z.hasBounds = typ != "int" || z.min.AsInt() > -1<<53 && z.max.AsInt() < 1<<53
	return z, nil
}

// boundFromManifest converts a zone bound, which must hold exactly one
// value, of the column's type.
func boundFromManifest(mv *manifestValue, typ string) (expr.Value, error) {
	var v expr.Value
	n := 0
	if mv != nil {
		if mv.I != nil {
			v, n = expr.Int(*mv.I), n+1
		}
		if mv.F != nil {
			v, n = expr.Float(*mv.F), n+1
		}
		if mv.S != nil {
			v, n = expr.Str(*mv.S), n+1
		}
		if mv.B != nil {
			v, n = expr.Bool(*mv.B), n+1
		}
	}
	if n != 1 || v.Kind().String() != typ {
		return v, fmt.Errorf("bound is not one %s value", typ)
	}
	return v, nil
}

// segmentWrite is one new segment of a commit: the segment object
// (named, no bytes yet) and the chunks whose rows go into it.
type segmentWrite struct {
	seg    *segment
	chunks []*chunk
}

// newSegmentWrite names the next segment of this store and pairs it
// with its chunks. Callers hold st.commitMu.
func (st *store) newSegmentWrite(cols []Column, chunks []*chunk) segmentWrite {
	name := fmt.Sprintf("%s%08d%s", segPrefix, st.nextSeg, segSuffix)
	st.nextSeg++
	return segmentWrite{chunks: chunks, seg: &segment{st: st, name: name, cols: cols, rows: chunksRows(chunks)}}
}

// syncWorkers bounds the segment files one commit writes and fsyncs at
// a time. That group waits on the device, not on a processor, so it is
// not sized by GOMAXPROCS the way the encoding group is.
const syncWorkers = 16

// writeSegments renders and persists every new segment of one commit
// (format 2, per-chunk encodings chosen by the stats pass). Page
// boundaries are cut per segment (cutPages), straight from the tail
// chunks; then all pages of all segments are encoded by one worker
// group sized by GOMAXPROCS, worker w with the store's encoder w — a
// page's bytes depend on nothing but its rows, so who encodes it
// changes nothing on disk; then each segment's pages are laid out in
// page order at their now-known offsets — written and fsynced, the
// segments concurrently, or kept on the heap. It returns once every
// goroutine it started has finished. On error the files it created may
// be incomplete: the caller removes them (abandon).
func (st *store) writeSegments(ws []segmentWrite) error {
	workers := runtime.GOMAXPROCS(0)
	cuts := make([][][]span, len(ws))
	_ = parallel(len(ws), workers, func(_, i int) error {
		cuts[i] = cutPages(len(ws[i].seg.cols), ws[i].chunks)
		return nil
	})
	type pageTask struct{ seg, page int }
	var tasks []pageTask
	pages := make([][]encodedPage, len(ws))
	for si, c := range cuts {
		pages[si] = make([]encodedPage, len(c))
		for pi := range c {
			tasks = append(tasks, pageTask{seg: si, page: pi})
		}
	}
	if n := min(workers, len(tasks)); len(st.encoders) < n {
		st.encoders = append(st.encoders, make([]chunkEncoder, n-len(st.encoders))...)
	}
	_ = parallel(len(tasks), workers, func(w, i int) error {
		t := tasks[i]
		pages[t.seg][t.page] = st.encoders[w].encode(ws[t.seg].seg.cols, cuts[t.seg][t.page])
		return nil
	})
	return parallel(len(ws), syncWorkers, func(_, i int) error {
		return ws[i].seg.persist(pages[i], cuts[i])
	})
}

// persist fills in the segment's page directory and stores the encoded
// pages in order: on the heap for a store without a directory,
// otherwise in a new file — fsynced, and open for the segment's
// lifetime.
func (s *segment) persist(pages []encodedPage, cuts [][]span) error {
	s.pages = make([]pageMeta, 0, len(pages))
	var off int64
	for pi, ep := range pages {
		s.pages = append(s.pages, pageMeta{off: off, size: len(ep.buf), rows: spanRows(cuts[pi]),
			raw: ep.raw, zones: ep.zones})
		off += int64(len(ep.buf))
	}
	if s.st.dir == "" {
		s.data = make([]byte, 0, off)
		for _, ep := range pages {
			s.data = append(s.data, ep.buf...)
		}
		return nil
	}
	if err := commitFault("write"); err != nil {
		return fmt.Errorf("storage: writing %s: %w", s.name, err)
	}
	f, err := os.OpenFile(filepath.Join(s.st.dir, s.name), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	s.file = f
	for pi, ep := range pages {
		if _, err := f.WriteAt(ep.buf, s.pages[pi].off); err != nil {
			return fmt.Errorf("storage: writing %s: %w", s.name, err)
		}
	}
	if err := commitFault("sync"); err != nil {
		return fmt.Errorf("storage: syncing %s: %w", s.name, err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("storage: syncing %s: %w", s.name, err)
	}
	return nil
}

// parallel calls fn(worker, i) for every i in [0, n) from at most
// workers goroutines — worker numbers them, so each can own scratch —
// and returns when all of them have finished: no goroutine outlives
// the call. After the first error no further index is started; the
// error reported is the first one recorded. With one worker, or one
// item, fn runs on the caller's goroutine.
func parallel(n, workers int, fn func(worker, i int) error) error {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		once   sync.Once
		failed atomic.Bool
		first  error
		wg     sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(w, i); err != nil {
					once.Do(func() { first = err })
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// descriptor rebuilds the segment's manifest entry. It is canonical:
// rehydrating a segment and re-deriving its descriptor yields the
// entry the manifest carried, which is what lets Reload — and the
// replication diff — compare descriptors to decide whether the
// on-disk file under a name is the one a new catalog means.
func (s *segment) descriptor() manifestSegment {
	ms := manifestSegment{File: s.name, Rows: s.rows, Format: manifestFormatV2}
	for _, p := range s.pages {
		ms.Pages = append(ms.Pages, manifestPage{Off: p.off, Size: p.size,
			Rows: p.rows, Raw: p.raw, Zones: zonesToManifest(p.zones)})
	}
	return ms
}

// manifestEntry is the segment's manifest entry as the manifest renders
// it (mf.RenderSegment), rendered the first time a commit or a reload
// asks for it: a segment never changes, and neither does its entry.
// Callers hold st.commitMu, as every commit and reload does.
func (s *segment) manifestEntry() ([]byte, error) {
	if s.entry == nil {
		e, err := mf.RenderSegment(s.descriptor())
		if err != nil {
			return nil, fmt.Errorf("storage: segment %s: %w", s.name, err)
		}
		s.entry = e
	}
	return s.entry, nil
}

// openSegment rehydrates a manifest-described segment file, checking
// its page directory against the file and against what this build
// writes (pageFromManifest).
func (st *store) openSegment(ms manifestSegment, cols []Column) (*segment, error) {
	f, err := os.Open(filepath.Join(st.dir, ms.File))
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	seg := &segment{st: st, file: f, name: ms.File, cols: cols, rows: ms.Rows}
	first, want := 0, int64(0)
	for pi, mp := range ms.Pages {
		if mp.Off != want || mp.Size <= 0 || mp.Size%pageBlock != 0 || int64(mp.Size) > info.Size()-want {
			f.Close()
			return nil, fmt.Errorf("segment %s page %d: offset %d, size %d do not fit the %d-byte file",
				ms.File, pi, mp.Off, mp.Size, info.Size())
		}
		pm, err := pageFromManifest(mp, cols)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("segment %s page %d: %w", ms.File, pi, err)
		}
		seg.pages = append(seg.pages, pm)
		first += mp.Rows
		want += int64(mp.Size)
	}
	if first != ms.Rows {
		f.Close()
		return nil, fmt.Errorf("segment %s pages sum to %d rows, manifest says %d", ms.File, first, ms.Rows)
	}
	seg.tryMmap()
	return seg, nil
}

// rehydrate builds the in-memory catalog a (parsed) manifest
// describes, in manifest order, returning the tables, the order, and
// the referenced segment file set, and bumping st.nextSeg past every
// referenced id. An existing segment object from reuse is carried
// over — open handle, decoded pages, mmap — when its descriptor and
// columns match the manifest entry exactly; a name whose descriptor
// differs (a recycled segment id: same file name, different content)
// is re-opened from disk instead, its page directory checked. Callers
// hold st.commitMu, or run before the DB is published (Open).
func (st *store) rehydrate(man *manifest, reuse map[string]*segment) (map[string]*Table, []string, map[string]bool, error) {
	tables := map[string]*Table{}
	var order []string
	referenced := map[string]bool{}
	for _, mt := range man.Tables {
		t, err := newTable(mt.Name, mt.Columns)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("manifest table %q: %w", mt.Name, err)
		}
		if _, dup := tables[mt.Name]; dup {
			return nil, nil, nil, fmt.Errorf("manifest names table %q twice", mt.Name)
		}
		var segs []*segment
		for _, ms := range mt.Segments {
			seg := reuse[ms.File]
			if seg == nil || !columnsEqual(seg.cols, t.Columns) || !seg.sameDescriptor(ms) {
				if seg, err = st.openSegment(ms, t.Columns); err != nil {
					return nil, nil, nil, fmt.Errorf("table %q: %w", mt.Name, err)
				}
			}
			segs = append(segs, seg)
			referenced[ms.File] = true
			if id, ok := mf.SegmentID(ms.File); ok && id >= st.nextSeg {
				st.nextSeg = id + 1
			}
		}
		if len(segs) > 0 {
			t.pg = newPager(segs)
		}
		tables[mt.Name] = t
		order = append(order, mt.Name)
	}
	return tables, order, referenced, nil
}

// Open opens (or initialises) a database rooted at directory dir.
// Recovery is part of opening: the latest committed manifest is
// rehydrated and every file it does not reference — segments written
// by a run that crashed before its manifest rename, a stray
// manifest.tmp — is deleted.
func Open(dir string) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", dir, err)
	}
	st := newStore(dir)
	db := &DB{tables: map[string]*Table{}, store: st}
	referenced := map[string]bool{}
	man, _, err := mf.Read(dir)
	switch {
	case err == nil:
		tables, order, refs, err := st.rehydrate(man, nil)
		if err != nil {
			return nil, fmt.Errorf("storage: %w", err)
		}
		db.version = man.Version
		db.tables, db.order, referenced = tables, order, refs
	case os.IsNotExist(err):
		// Fresh directory (or a crash before the very first commit).
	default:
		return nil, fmt.Errorf("storage: open %s: %w", dir, err)
	}
	st.gc(referenced)
	return db, nil
}

// sameDescriptor reports whether ms describes the segment: whether it
// renders to the segment's manifest entry. The descriptors are pure
// data, and their rendering is a deep equality that cannot drift from
// the schema.
func (s *segment) sameDescriptor(ms manifestSegment) bool {
	a, errA := s.manifestEntry()
	b, errB := mf.RenderSegment(ms)
	return errA == nil && errB == nil && bytes.Equal(a, b)
}

func columnsEqual(a, b []Column) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// gc purges the pages of st's segments not in referenced from the
// buffer pool — cached pages pin their segment, and a file segment's
// descriptor with it — and, with a directory, deletes every segment
// file not in referenced plus any stale manifest.tmp. Errors are
// ignored: a leftover orphan is collected by the next gc, and never
// read (the manifest does not name it).
func (st *store) gc(referenced map[string]bool) {
	st.cache.purge(func(s *segment) bool {
		return s.st != st || referenced[s.name]
	})
	if st.dir == "" {
		return
	}
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if name == manifestTmp {
			os.Remove(filepath.Join(st.dir, name))
			continue
		}
		if mf.IsSegmentName(name) && !referenced[name] {
			os.Remove(filepath.Join(st.dir, name))
		}
	}
}

// commitDisk commits the tentative catalog (order + tables, which may
// include tables not yet registered in db.tables) at version v. With a
// directory the catalog is persisted as manifest version v. Once that
// rename lands (at once without a directory) it takes db.mu just long
// enough to swap the affected tables' pagers, drop their committed
// tail prefixes and run the caller's apply step
// (catalog map/order/version changes); all encoding and I/O happens
// WITHOUT db.mu, so concurrent snapshots and version reads never wait
// on a commit's fsyncs. On failure the in-memory DB is untouched, the
// new segments' files are closed and the half-written files are
// removed (unless TestingCommitFault simulated a crash, in which case
// they are left for Open's recovery to collect). Callers hold
// st.commitMu — which is what keeps the tentative catalog stable while
// unlocked — and must NOT hold db.mu.
//
// Compaction rides the same commit point: a table the commit would
// leave with more than compactSegments segments has its committed
// segments folded together with its new rows into ONE freshly encoded
// segment — same rows, same order, re-run encoding selection —
// referenced by the same atomic manifest rename. A crash anywhere
// before the rename recovers the pre-compaction segment list; the old
// segments are deleted only after the rename (readers holding
// pre-compaction snapshots keep their open handles).
func (db *DB) commitDisk(v uint64, order []string, tables map[string]*Table, apply func()) error {
	st := db.store
	type pend struct {
		name  string
		t     *Table
		tailN int // chunks of t's tail the commit encodes
		newPg *pager
	}
	var pends []pend
	var writes []segmentWrite
	// abandon closes the new segments' files and, unless a simulated
	// crash wants them left for recovery to find, removes them.
	abandon := func(remove bool) {
		for _, w := range writes {
			if w.seg.file == nil {
				continue
			}
			w.seg.file.Close()
			if remove {
				os.Remove(filepath.Join(st.dir, w.seg.name))
			}
		}
	}
	for _, name := range order {
		t := tables[name]
		pg, tail := t.capture()
		chunks := tail
		// A pager holding another store's segments (a frozen view of a
		// different database, attached here) cannot be named by this
		// directory's manifest — the files live elsewhere, and recovery
		// would fail (or, on a name collision, silently read the wrong
		// bytes). Materialize such tables into local segments instead. A
		// store without a directory writes no manifest: it keeps the
		// reference.
		if st.dir != "" && pg.foreignTo(st) {
			chunks = append(pg.chunks(), tail...)
			pg = nil
		}
		if pg != nil && len(pg.segs)+min(len(chunks), 1) > compactSegments {
			chunks = append(pg.chunks(), chunks...)
			pg = nil
		}
		newPg := pg
		if len(chunks) > 0 {
			w := st.newSegmentWrite(t.Columns, chunks)
			writes = append(writes, w)
			newPg = pg.extend(w.seg)
		}
		pends = append(pends, pend{name: name, t: t, tailN: len(tail), newPg: newPg})
	}
	// Every table's new rows are known: render and persist all the new
	// segments together. Nothing below runs until each is written and
	// fsynced — the manifest must never name a file that is not durable.
	if err := st.writeSegments(writes); err != nil {
		abandon(true)
		return err
	}
	if st.dir != "" {
		man := manifest{Format: manifestFormatV2, Version: v}
		entries := make([][][]byte, len(pends))
		for i, p := range pends {
			man.Tables = append(man.Tables, manifestTable{Name: p.name, Columns: p.t.Columns})
			if p.newPg == nil {
				continue
			}
			for _, s := range p.newPg.segs {
				e, err := s.manifestEntry()
				if err != nil {
					abandon(true)
					return err
				}
				entries[i] = append(entries[i], e)
			}
		}
		if crashed, err := st.install(mf.Render(&man, entries), len(writes) > 0); err != nil {
			abandon(!crashed)
			return err
		}
		for _, w := range writes {
			w.seg.tryMmap()
		}
	}
	// Committed. Swap pagers, drop committed tails and apply the
	// caller's catalog changes under db.mu, then collect no-longer-
	// referenced segments. A table keeps a fresh copy of the chunks
	// appended since its capture: a slice of the old array would keep
	// every committed chunk reachable, and the chunks cannot be cleared
	// in place because snapshots share that array (capture).
	referenced := map[string]bool{}
	db.mu.Lock()
	for _, p := range pends {
		p.t.mu.Lock()
		p.t.pg = p.newPg
		p.t.tail = slices.Clone(p.t.tail[p.tailN:]) // holds no array when empty
		p.t.mu.Unlock()
		p.newPg.referencedFiles(st, referenced)
	}
	if apply != nil {
		apply()
	}
	db.mu.Unlock()
	st.gc(referenced)
	return nil
}

// install makes a commit's new segment files durable as directory
// entries (when it wrote any), then stages the manifest's bytes and
// renames them into place — the commit point. It reports whether a
// failure was a crash TestingCommitFault simulated, whose files stay
// for recovery to find.
func (st *store) install(data []byte, wrote bool) (crashed bool, err error) {
	if err := commitFault("segments"); err != nil {
		return true, err
	}
	// Make the new segments' DIRECTORY ENTRIES durable before the
	// manifest can name them: f.Sync persists a file's data and inode
	// but not its entry in the directory, so without this a power loss
	// could persist the renamed manifest while the segment files it
	// references are gone — an unrecoverable catalog instead of a clean
	// previous-version recovery.
	if wrote {
		if err := mf.FsyncDir(st.dir); err != nil {
			return false, fmt.Errorf("storage: syncing %s: %w", st.dir, err)
		}
	}
	if err := mf.Stage(st.dir, data); err != nil {
		return false, fmt.Errorf("storage: %w", err)
	}
	if err := commitFault("rename"); err != nil {
		return true, err
	}
	// The rename inside Install IS the commit: once it lands,
	// manifest.json names the new catalog and the in-memory state must
	// follow no matter what — returning an error after it would roll
	// back a run that recovery would resurrect. (Install treats the
	// post-rename directory fsync as best-effort for exactly that
	// reason: its failure only weakens durability, recovering the
	// PREVIOUS version after a crash, which is indistinguishable from
	// crashing a moment earlier.)
	return false, mf.Install(st.dir)
}

// catalogWith builds the tentative (order, tables) catalog of the
// current DB plus the given additions (same-name additions replace).
// Callers hold st.commitMu, which freezes the catalog against every
// other mutator; the read lock below only orders the reads against a
// concurrent commit's apply step.
func (db *DB) catalogWith(add []*Table) ([]string, map[string]*Table) {
	db.mu.RLock()
	tables := make(map[string]*Table, len(db.tables)+len(add))
	for n, t := range db.tables {
		tables[n] = t
	}
	order := append([]string(nil), db.order...)
	db.mu.RUnlock()
	for _, t := range add {
		if _, ok := tables[t.Name]; !ok {
			order = append(order, t.Name)
		}
		tables[t.Name] = t
	}
	return order, tables
}

// Checkpoint commits every table's uncommitted tail at the current
// version (persisting it, with a directory). Rows loaded through an
// ETL run are committed by the run itself (Publish); Checkpoint
// covers rows inserted directly — e.g. a generated source dataset —
// before any run has happened. A table past compactSegments segments
// is compacted, at the same version: the content does not change.
func (db *DB) Checkpoint() error {
	st := db.store
	st.commitMu.Lock()
	defer st.commitMu.Unlock()
	order, tables := db.catalogWith(nil)
	return db.commitDisk(db.Version(), order, tables, nil)
}

// TableDiskStats is one table's committed on-disk footprint.
type TableDiskStats struct {
	Segments int   `json:"segments"`
	Pages    int   `json:"pages"`
	Bytes    int64 `json:"bytes"`
}

// DiskStats reports each table's segment count, page count and byte
// size (committed segments only — uncommitted tail rows have no disk
// footprint). Nil for a database without a directory.
func (db *DB) DiskStats() map[string]TableDiskStats {
	if db.store.dir == "" {
		return nil
	}
	db.mu.RLock()
	tables := make(map[string]*Table, len(db.tables))
	for n, t := range db.tables {
		tables[n] = t
	}
	db.mu.RUnlock()
	out := make(map[string]TableDiskStats, len(tables))
	for name, t := range tables {
		pg, _ := t.capture()
		var s TableDiskStats
		if pg != nil {
			for _, seg := range pg.segs {
				s.Segments++
				s.Pages += len(seg.pages)
				if n := len(seg.pages); n > 0 {
					last := seg.pages[n-1]
					s.Bytes += last.off + int64(last.size)
				}
			}
		}
		out[name] = s
	}
	return out
}

// SegmentBytes returns the encoded bytes of each committed segment of
// the named table, in segment order: what the files hold with a
// directory, what the heap holds without one. Tests pin them.
func (db *DB) SegmentBytes(name string) ([][]byte, bool) {
	t, ok := db.Table(name)
	if !ok {
		return nil, false
	}
	pg, _ := t.capture()
	var out [][]byte
	if pg != nil {
		for _, s := range pg.segs {
			var b []byte
			for i := range s.pages {
				b = append(b, s.read(i)...)
			}
			out = append(out, b)
		}
	}
	return out, true
}

// StorageDir reports the database's directory ("" for one without).
func (db *DB) StorageDir() string { return db.store.dir }
