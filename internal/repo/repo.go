// Package repo implements the storage half of Quarry's Communication
// & Metadata layer (§2.5–2.6): the repository holding every artifact
// produced and used during the DW design lifecycle — information
// requirements (xRQ), partial and unified MD schemata (xMD), partial
// and unified ETL designs (xLM), domain ontologies and source schema
// mappings.
//
// The paper backs this layer with a MongoDB instance plus a generic
// XML-JSON-XML parser; this package provides the equivalent embedded
// substrate: a mutex-guarded JSON document store with collections,
// auto-generated ids, dotted-path equality queries, and optional disk
// persistence (one JSON file per collection).
package repo

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Doc is one stored document.
type Doc = map[string]any

// Collection is a named set of documents.
type Collection struct {
	name string

	mu    sync.RWMutex
	docs  map[string]Doc
	order []string
	next  int

	// What Flush needs to write only what changed: dirty is set by every
	// mutation and cleared when the collection's file is written; enc
	// caches each document's indented JSON, filled by Flush (so an
	// in-memory store never encodes anything) and dropped for a document
	// when it is replaced or deleted.
	dirty bool
	enc   map[string][]byte
}

func newCollection(name string) *Collection {
	return &Collection{name: name, docs: map[string]Doc{}, enc: map[string][]byte{}, dirty: true}
}

// Insert stores a document, assigning an "_id" when absent, and
// returns the id. The document is deep-copied on the way in.
func (c *Collection) Insert(d Doc) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cp := deepCopy(d).(Doc)
	id, _ := cp["_id"].(string)
	if id == "" {
		c.next++
		id = fmt.Sprintf("%s-%06d", c.name, c.next)
		cp["_id"] = id
	}
	if _, dup := c.docs[id]; dup {
		return "", fmt.Errorf("repo: duplicate _id %q in %s", id, c.name)
	}
	c.docs[id] = cp
	c.order = append(c.order, id)
	c.dirty = true
	return id, nil
}

// Put stores or replaces the document under the id.
func (c *Collection) Put(id string, d Doc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cp := deepCopy(d).(Doc)
	cp["_id"] = id
	if _, exists := c.docs[id]; !exists {
		c.order = append(c.order, id)
	}
	c.docs[id] = cp
	delete(c.enc, id)
	c.dirty = true
}

// Get retrieves a document copy by id.
func (c *Collection) Get(id string) (Doc, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	d, ok := c.docs[id]
	if !ok {
		return nil, false
	}
	return deepCopy(d).(Doc), true
}

// Delete removes a document; it reports whether it existed.
func (c *Collection) Delete(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.docs[id]; !ok {
		return false
	}
	delete(c.docs, id)
	delete(c.enc, id)
	c.dirty = true
	for i, oid := range c.order {
		if oid == id {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	return true
}

// All returns copies of every document in insertion order.
func (c *Collection) All() []Doc {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]Doc, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, deepCopy(c.docs[id]).(Doc))
	}
	return out
}

// encodeIfDirty renders the collection's file — the bytes of
// json.MarshalIndent(c.All(), "", "  "), assembled from the cached
// per-document encodings so only documents stored since the last flush
// are marshalled — and marks the collection clean. It reports false,
// with no data, when nothing changed since the file was last written.
func (c *Collection) encodeIfDirty() ([]byte, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.dirty {
		return nil, false, nil
	}
	if len(c.order) == 0 {
		c.dirty = false
		return []byte("[]"), true, nil
	}
	size := 2
	for _, id := range c.order {
		if c.enc[id] == nil {
			// One array element: nested one level, so every line after the
			// first carries the element's own indent as its prefix.
			b, err := json.MarshalIndent(c.docs[id], "  ", "  ")
			if err != nil {
				return nil, false, err
			}
			c.enc[id] = b
		}
		size += len(c.enc[id]) + 4
	}
	out := make([]byte, 0, size)
	out = append(out, '[')
	for i, id := range c.order {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(append(out, "\n  "...), c.enc[id]...)
	}
	c.dirty = false
	return append(out, "\n]"...), true, nil
}

// markDirty makes the next flush write the collection again.
func (c *Collection) markDirty() {
	c.mu.Lock()
	c.dirty = true
	c.mu.Unlock()
}

// Count reports the number of documents.
func (c *Collection) Count() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.docs)
}

// Find returns documents whose fields equal every filter entry.
// Filter keys may be dotted paths ("design.metadata.requirement").
func (c *Collection) Find(filter map[string]any) []Doc {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []Doc
	for _, id := range c.order {
		d := c.docs[id]
		match := true
		for path, want := range filter {
			got, ok := lookupPath(d, path)
			if !ok || !looseEqual(got, want) {
				match = false
				break
			}
		}
		if match {
			out = append(out, deepCopy(d).(Doc))
		}
	}
	return out
}

// lookupPath resolves a dotted path within a document.
func lookupPath(d Doc, path string) (any, bool) {
	var cur any = d
	for _, part := range strings.Split(path, ".") {
		m, ok := cur.(map[string]any)
		if !ok {
			return nil, false
		}
		cur, ok = m[part]
		if !ok {
			return nil, false
		}
	}
	return cur, true
}

// looseEqual compares scalars with JSON-style numeric laxity (an
// int64 written to disk comes back float64).
func looseEqual(a, b any) bool {
	if a == b {
		return true
	}
	af, aok := toFloat(a)
	bf, bok := toFloat(b)
	return aok && bok && af == bf
}

func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	case float64:
		return x, true
	case float32:
		return float64(x), true
	default:
		return 0, false
	}
}

func deepCopy(v any) any {
	switch x := v.(type) {
	case map[string]any:
		out := make(map[string]any, len(x))
		for k, vv := range x {
			out[k] = deepCopy(vv)
		}
		return out
	case []any:
		out := make([]any, len(x))
		for i, vv := range x {
			out[i] = deepCopy(vv)
		}
		return out
	default:
		return v
	}
}

// Store is a set of collections with optional disk persistence.
type Store struct {
	dir string

	mu          sync.Mutex
	collections map[string]*Collection
}

// Open creates a store. With a non-empty dir, existing collection
// files ("<name>.json") are loaded and Flush persists state back.
func Open(dir string) (*Store, error) {
	s := &Store{dir: dir, collections: map[string]*Collection{}}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("repo: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("repo: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		name := strings.TrimSuffix(e.Name(), ".json")
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("repo: %w", err)
		}
		var docs []Doc
		if err := json.Unmarshal(data, &docs); err != nil {
			return nil, fmt.Errorf("repo: collection %s corrupt: %w", name, err)
		}
		col := newCollection(name)
		for _, d := range docs {
			if _, err := col.Insert(d); err != nil {
				return nil, err
			}
		}
		col.next = len(docs)
		col.dirty = false // the file just read is the collection
		s.collections[name] = col
	}
	return s, nil
}

// Collection returns (creating if needed) a named collection.
func (s *Store) Collection(name string) *Collection {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.collections[name]
	if !ok {
		c = newCollection(name)
		s.collections[name] = c
	}
	return c
}

// CollectionNames lists existing collections, sorted.
func (s *Store) CollectionNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.collections))
	for n := range s.collections {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Flush persists every collection that changed since it was last
// written (no-op for in-memory stores).
func (s *Store) Flush() error {
	if s.dir == "" {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, col := range s.collections {
		data, dirty, err := col.encodeIfDirty()
		if err != nil {
			return fmt.Errorf("repo: %w", err)
		}
		if !dirty {
			continue
		}
		if err := writeFile(s.dir, name, data); err != nil {
			col.markDirty()
			return fmt.Errorf("repo: %w", err)
		}
	}
	return nil
}

// writeFile replaces the collection's file through a rename.
func writeFile(dir, name string, data []byte) error {
	tmp := filepath.Join(dir, name+".json.tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, name+".json"))
}
