package storage

import (
	"fmt"
	"os"

	mf "quarry/internal/storage/manifest"
)

// Reload re-reads the committed manifest of a database's directory and
// swaps the in-memory catalog to match — the in-process half of
// replication: after internal/replication fetches a primary's missing
// segments and installs its manifest through the commit point, Reload
// makes the new version visible to readers exactly like a local commit
// would (one brief db.mu critical section; snapshots taken before the
// call keep reading their old segments through their open handles).
//
// Segment objects whose manifest descriptor is unchanged are carried
// over — open file handle, decoded buffer-pool pages, mmap — so a
// reload touching one table does not cold-start the others. A file
// name whose descriptor differs (a recycled segment id from a primary
// crash+republish cycle) is re-opened from disk. Unpersisted tail rows
// are discarded: Reload's caller is a replica, whose tables are never
// written between commits.
//
// Files the new manifest no longer references are deleted, mirroring
// recovery at Open.
func (db *DB) Reload() error {
	st := db.store
	if st.dir == "" {
		return fmt.Errorf("storage: Reload requires a database with a directory")
	}
	st.commitMu.Lock()
	defer st.commitMu.Unlock()
	man, _, err := mf.Read(st.dir)
	switch {
	case os.IsNotExist(err):
		return nil // no commit yet: nothing to reload
	case err != nil:
		return fmt.Errorf("storage: reload %s: %w", st.dir, err)
	}
	reuse := map[string]*segment{}
	db.mu.RLock()
	for _, t := range db.tables {
		pg, _ := t.capture()
		if pg == nil {
			continue
		}
		for _, s := range pg.segs {
			if s.st == st {
				reuse[s.name] = s
			}
		}
	}
	db.mu.RUnlock()
	tables, order, referenced, err := st.rehydrate(man, reuse)
	if err != nil {
		return fmt.Errorf("storage: reload %s: %w", st.dir, err)
	}
	db.mu.Lock()
	db.tables, db.order, db.version = tables, order, man.Version
	db.mu.Unlock()
	st.gc(referenced)
	return nil
}
