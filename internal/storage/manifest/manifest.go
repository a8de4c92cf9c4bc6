// Package manifest is the transport-agnostic half of the storage
// engine's commit/recovery protocol: the JSON catalog schema, the
// fsync+rename commit point, and the catalog diff that turns the
// protocol into a replication mechanism.
//
// A storage directory is fully described by one manifest.json naming
// immutable segment files. Because segments are never rewritten in
// place and the manifest rename is the single atomic commit point,
// shipping a catalog to another machine reduces to: fetch the
// segments the remote manifest names that the local one does not,
// then adopt the remote manifest bytes through the same commit point.
// Catch-up after downtime is just a bigger diff, and a crash mid-fetch
// recovers exactly like a crash mid-commit — unreferenced files are
// garbage, the committed manifest is the truth.
//
// The storage package layers the in-memory state (pagers, buffer
// pool, snapshots) on top of these primitives; internal/replication
// layers the transport on top. Neither side re-implements the commit
// point.
package manifest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

const (
	// FileName is the committed catalog; TmpName is its staging file,
	// renamed over FileName at the commit point.
	FileName = "manifest.json"
	TmpName  = "manifest.tmp"
	// FormatV2 — per-chunk compressed encodings, 4 KiB page blocks and
	// zone maps — is the one format this build reads and writes, on the
	// manifest and on every segment. Format 1, the raw-page format of
	// earlier releases, is refused.
	FormatV2 = 2
	// SegPrefix/SegSuffix frame segment file names: seg-NNNNNNNN.qseg.
	SegPrefix = "seg-"
	SegSuffix = ".qseg"
)

// Manifest is the whole truth about a storage directory: segment
// files carry no headers of their own.
type Manifest struct {
	Format  int     `json:"format"`
	Version uint64  `json:"version"`
	Tables  []Table `json:"tables"`
}

// Table is one table's committed state: column definitions and the
// ordered segment list whose concatenation is the table's rows.
type Table struct {
	Name     string    `json:"name"`
	Columns  []Column  `json:"columns"`
	Segments []Segment `json:"segments,omitempty"`
}

// Column mirrors storage.Column (kept separate so this package stays
// import-free of the storage internals it underpins).
type Column struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// Segment describes one immutable on-disk run of rows.
type Segment struct {
	File   string `json:"file"`
	Rows   int    `json:"rows"`
	Format int    `json:"format,omitempty"` // the segment's page format: FormatV2
	Pages  []Page `json:"pages"`
}

// Size is the segment's byte length: pages are laid out contiguously
// from offset 0, so the last page's extent is the file size.
func (s *Segment) Size() int64 {
	if len(s.Pages) == 0 {
		return 0
	}
	last := s.Pages[len(s.Pages)-1]
	return last.Off + int64(last.Size)
}

// Page locates one page inside a segment.
type Page struct {
	Off  int64 `json:"off"`
	Size int   `json:"size"`
	Rows int   `json:"rows"`
	// Raw is the page's raw (uncompressed) encoded size — the buffer
	// pool's charge for the decoded page. Zones is the page's
	// per-column zone map.
	Raw   int    `json:"raw,omitempty"`
	Zones []Zone `json:"zones,omitempty"`
}

// Zone serialises one zone-map entry. Min/Max absent means no bounds
// (all-NULL column, non-finite floats, over-long strings).
type Zone struct {
	Nulls int    `json:"nulls,omitempty"`
	Min   *Value `json:"min,omitempty"`
	Max   *Value `json:"max,omitempty"`
}

// Value is a typed scalar in the manifest: exactly one field set.
// (Bounds holding NaN or Inf are never written — such chunks get no
// bounds — so JSON number encoding is always valid, and Go's
// shortest-round-trip float formatting keeps it exact.)
type Value struct {
	I *int64   `json:"i,omitempty"`
	F *float64 `json:"f,omitempty"`
	S *string  `json:"s,omitempty"`
	B *bool    `json:"b,omitempty"`
}

// Parse decodes and validates manifest bytes: the manifest and every
// segment must be format 2, and every segment file name well-formed.
func Parse(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("manifest corrupt: %w", err)
	}
	if err := checkFormat(m.Format); err != nil {
		return nil, fmt.Errorf("manifest %w", err)
	}
	for _, t := range m.Tables {
		for _, s := range t.Segments {
			if !IsSegmentName(s.File) {
				return nil, fmt.Errorf("table %q: %q is no segment file name", t.Name, s.File)
			}
			if err := checkFormat(s.Format); err != nil {
				return nil, fmt.Errorf("table %q: segment %s %w", t.Name, s.File, err)
			}
		}
	}
	return &m, nil
}

// checkFormat refuses every format but FormatV2, telling the owner of
// a format-1 directory how to migrate it.
func checkFormat(f int) error {
	switch f {
	case FormatV2:
		return nil
	case 1:
		return fmt.Errorf("has format 1, which this build no longer reads: rewrite the directory with `quarryd -compact` from a build that still has that flag")
	}
	return fmt.Errorf("has format %d; this build reads format %d only", f, FormatV2)
}

// Read loads the committed manifest of a directory, returning both
// the parsed catalog and the raw bytes (replication adopts the bytes
// verbatim so a replica's catalog is byte-identical to the
// primary's). os.IsNotExist on the returned error means no commit has
// happened yet.
func Read(dir string) (*Manifest, []byte, error) {
	data, err := os.ReadFile(filepath.Join(dir, FileName))
	if err != nil {
		return nil, nil, err
	}
	m, err := Parse(data)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", FileName, err)
	}
	return m, data, nil
}

// Stage writes and fsyncs TmpName with the complete new catalog — the
// step before the commit point. A crash after Stage leaves the
// previous catalog committed; recovery deletes the stray tmp file.
func Stage(dir string, data []byte) error {
	tmp := filepath.Join(dir, TmpName)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", TmpName, err)
	}
	return nil
}

// Install renames the staged TmpName onto FileName — the SINGLE
// atomic commit point — and best-effort fsyncs the directory. A
// directory-fsync failure after the rename only weakens durability (a
// crash may recover the previous version, indistinguishable from
// crashing a moment earlier), so it is deliberately not an error: the
// next successful commit re-syncs the directory.
func Install(dir string) error {
	if err := os.Rename(filepath.Join(dir, TmpName), filepath.Join(dir, FileName)); err != nil {
		return err
	}
	_ = FsyncDir(dir)
	return nil
}

// Commit stages and installs catalog bytes in one call — the whole
// commit point for callers (replication) that need no fault-injection
// seam between the two steps.
func Commit(dir string, data []byte) error {
	if err := Stage(dir, data); err != nil {
		return err
	}
	return Install(dir)
}

// FsyncDir makes renames and file creations in dir durable.
func FsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// SegmentID parses the numeric id out of a segment file name,
// doubling as the validity check for names arriving over the wire (a
// replication fetch must never turn a request path into a directory
// traversal).
func SegmentID(name string) (uint64, bool) {
	if !strings.HasPrefix(name, SegPrefix) || !strings.HasSuffix(name, SegSuffix) {
		return 0, false
	}
	body := strings.TrimSuffix(strings.TrimPrefix(name, SegPrefix), SegSuffix)
	if body == "" || strings.ContainsAny(body, "/\\.") {
		return 0, false
	}
	var id uint64
	if _, err := fmt.Sscanf(body, "%d", &id); err != nil {
		return 0, false
	}
	return id, true
}

// IsSegmentName reports whether name is a well-formed segment file
// name (and nothing else — no path separators, no dots).
func IsSegmentName(name string) bool {
	_, ok := SegmentID(name)
	return ok
}

// Segments returns the manifest's segment descriptors keyed by file
// name. Descriptors are the unit of the replication diff: two
// catalogs referencing the same file name with different descriptors
// (a recycled id after a primary crash) must not be treated as the
// same segment.
func (m *Manifest) Segments() map[string]Segment {
	out := map[string]Segment{}
	for _, t := range m.Tables {
		for _, s := range t.Segments {
			out[s.File] = s
		}
	}
	return out
}

// Diff lists the segments of remote that local (nil for an empty
// directory) does not reference with a byte-identical descriptor —
// i.e. the files a replica must fetch before adopting remote. The
// descriptor comparison, not mere file-name presence, is what makes a
// recycled segment id (same name, different content after a primary
// crash+republish cycle) refetch instead of silently serving the
// stale bytes: descriptors embed the full page directory and
// per-chunk zone maps, so distinct contents collide only if every
// page boundary and every column's min/max agree.
func Diff(local, remote *Manifest) []Segment {
	var have map[string]Segment
	if local != nil {
		have = local.Segments()
	}
	var missing []Segment
	seen := map[string]bool{}
	for _, t := range remote.Tables {
		for _, s := range t.Segments {
			if seen[s.File] {
				continue
			}
			seen[s.File] = true
			if ls, ok := have[s.File]; ok && sameSegment(ls, s) {
				continue
			}
			missing = append(missing, s)
		}
	}
	return missing
}

// sameSegment compares two segment descriptors structurally (via
// their canonical JSON — the descriptors are pure data).
func sameSegment(a, b Segment) bool {
	aj, errA := json.Marshal(a)
	bj, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(aj, bj)
}
