package storage

import (
	"os"
	"path/filepath"
	"testing"
)

// manifestFixture commits a small warehouse — table t of mixed rows in
// several pages plus an appended delta segment, table u of one page —
// to a fresh directory and returns its segment files by name and its
// manifest bytes. The bytes are the same on every run.
func manifestFixture(tb testing.TB) (map[string][]byte, []byte) {
	tb.Helper()
	dir := tb.TempDir()
	db, err := Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	rows := func(base, n int) []Row {
		out := make([]Row, n)
		for i := range out {
			out[i] = mixedRow(base + i)
		}
		return out
	}
	commit := func(err error) {
		if err != nil {
			tb.Fatal(err)
		}
	}
	tbl, err := db.CreateTable("t", mixedCols)
	commit(err)
	commit(tbl.InsertAll(rows(0, 3000)))
	commit(db.Checkpoint())
	delta, err := NewStagingTable("t", mixedCols)
	commit(err)
	commit(delta.InsertAll(rows(5000, 40)))
	commit(db.CommitRun(nil, []AppendDelta{{Target: tbl, Delta: delta}}))
	u, err := db.CreateTable("u", []Column{{Name: "s", Type: "string"}, {Name: "f", Type: "float"}})
	commit(err)
	commit(u.Insert(Row{mixedRow(1)[2], mixedRow(1)[1]}))
	commit(db.Checkpoint())

	entries, err := os.ReadDir(dir)
	commit(err)
	segs := map[string][]byte{}
	var man []byte
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		commit(err)
		if e.Name() == manifestName {
			man = data
		} else {
			segs[e.Name()] = data
		}
	}
	return segs, man
}

// FuzzManifestOpen opens a directory holding the fixture's segment
// files under a fuzzed manifest.json. Open must return an error or a
// database every page directory of which this build could have
// written — offsets contiguous within the file, and every entry one
// pageFromManifest accepts — and it must never panic. The seed corpus
// (testdata/fuzz/FuzzManifestOpen) holds the fixture's manifest and
// manglings of it, format-1 and future-format manifests, and the SF 5
// canonical warehouse's.
func FuzzManifestOpen(f *testing.F) {
	segs, man := manifestFixture(f)
	f.Add(man)
	// One directory serves every input: Open's recovery deletes the
	// segment files an input does not name, and they are put back.
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		for name, b := range segs {
			path := filepath.Join(dir, name)
			if _, err := os.Stat(path); err == nil {
				continue
			}
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := Open(dir)
		if err != nil {
			return
		}
		for _, name := range db.TableNames() {
			tbl, _ := db.Table(name)
			pg, _ := tbl.capture()
			if pg == nil {
				continue
			}
			for _, s := range pg.segs {
				size := int64(len(segs[s.name]))
				var off int64
				for pi, mp := range s.descriptor().Pages {
					if mp.Off != off || mp.Size <= 0 || int64(mp.Size) > size-off {
						t.Fatalf("table %s segment %s page %d at %d+%d in a %d-byte file", name, s.name, pi, mp.Off, mp.Size, size)
					}
					if _, err := pageFromManifest(mp, s.cols); err != nil {
						t.Fatalf("table %s segment %s page %d opened, but: %v", name, s.name, pi, err)
					}
					off += int64(mp.Size)
				}
			}
		}
	})
}
