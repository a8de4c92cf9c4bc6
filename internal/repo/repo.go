// Package repo implements the storage half of Quarry's Communication
// & Metadata layer (§2.5–2.6): the repository holding the artifacts of
// the DW design lifecycle — information requirements (xRQ) and the
// partial and unified MD schemata (xMD) and ETL designs (xLM).
//
// Each artifact is kept once, as its canonical XML text, in one of three
// collections: an insertion-ordered id → text map. With a directory,
// Flush writes each collection that changed to "<collection>.json", an
// indented JSON array of {"_id", "format", "xml"} documents, through a
// temporary file and a rename. The paper backs this layer with MongoDB
// and a generic XML-JSON-XML parser; nothing here ever read the JSON
// form, so none is kept. Files that still carry a "json" key beside the
// text read unchanged: the key is ignored and is gone after the next
// write of that collection.
package repo

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"quarry/internal/xlm"
	"quarry/internal/xmd"
	"quarry/internal/xrq"
)

// Designs is the metadata repository.
type Designs struct {
	dir string

	mu            sync.Mutex
	reqs, md, etl *collection
}

// collection is one ordered id → XML text map, plus what Flush needs
// to write only what changed: dirty is set by every mutation and
// cleared when the collection's file is written; enc caches each
// document's indented JSON, filled by Flush (so an in-memory repository
// never encodes anything) and dropped for a document when it is
// replaced or deleted.
type collection struct {
	name, format string
	ids          []string
	text         map[string]string
	dirty        bool
	enc          map[string][]byte
}

// document is one element of a collection's file.
type document struct {
	ID     string `json:"_id"`
	Format string `json:"format"`
	XML    string `json:"xml"`
}

func newCollection(name, format string) *collection {
	return &collection{name: name, format: format, text: map[string]string{}, enc: map[string][]byte{}, dirty: true}
}

// Open creates a repository. With a non-empty dir the collection files
// found there are loaded and Flush writes changes back; a document with
// no "_id" or no "xml", or a repeated "_id", fails the open.
func Open(dir string) (*Designs, error) {
	r := &Designs{
		dir:  dir,
		reqs: newCollection("requirements", "xRQ"),
		md:   newCollection("md_designs", "xMD"),
		etl:  newCollection("etl_designs", "xLM"),
	}
	if dir == "" {
		return r, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("repo: %w", err)
	}
	for _, c := range r.collections() {
		data, err := os.ReadFile(filepath.Join(dir, c.name+".json"))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("repo: %w", err)
		}
		if err := c.decode(data); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *Designs) collections() []*collection { return []*collection{r.reqs, r.md, r.etl} }

// decode fills the collection from its file; the file just read is the
// collection, so it is clean.
func (c *collection) decode(data []byte) error {
	var docs []document
	if err := json.Unmarshal(data, &docs); err != nil {
		return fmt.Errorf("repo: collection %s corrupt: %w", c.name, err)
	}
	for i, d := range docs {
		switch _, dup := c.text[d.ID]; {
		case d.ID == "":
			return fmt.Errorf("repo: collection %s: document %d has no _id", c.name, i)
		case d.XML == "":
			return fmt.Errorf("repo: collection %s: %s has no xml", c.name, d.ID)
		case dup:
			return fmt.Errorf("repo: collection %s: duplicate _id %q", c.name, d.ID)
		}
		c.ids = append(c.ids, d.ID)
		c.text[d.ID] = d.XML
	}
	c.dirty = false
	return nil
}

// save stores or replaces the text under the id.
func (r *Designs) save(c *collection, id, text string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := c.text[id]; !ok {
		c.ids = append(c.ids, id)
	}
	c.text[id] = text
	delete(c.enc, id)
	c.dirty = true
}

// load parses the text stored under the id.
func load[T any](r *Designs, c *collection, id string, unmarshal func(string) (T, error)) (T, error) {
	r.mu.Lock()
	text, ok := c.text[id]
	r.mu.Unlock()
	if !ok {
		var zero T
		return zero, fmt.Errorf("repo: %s/%s not found", c.name, id)
	}
	return unmarshal(text)
}

// remove deletes the id; it reports whether it was stored.
func (r *Designs) remove(c *collection, id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := c.text[id]; !ok {
		return false
	}
	delete(c.text, id)
	delete(c.enc, id)
	c.ids = slices.DeleteFunc(c.ids, func(s string) bool { return s == id })
	c.dirty = true
	return true
}

// SaveRequirement stores a requirement keyed by its ID.
func (r *Designs) SaveRequirement(req *xrq.Requirement) error {
	text, err := xrq.Marshal(req)
	if err != nil {
		return err
	}
	r.save(r.reqs, req.ID, text)
	return nil
}

// Requirement loads a requirement by ID.
func (r *Designs) Requirement(id string) (*xrq.Requirement, error) {
	return load(r, r.reqs, id, xrq.Unmarshal)
}

// Requirements lists all stored requirement IDs in insertion order.
func (r *Designs) Requirements() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.reqs.ids)
}

// DeleteRequirement removes a requirement (requirement evolution).
func (r *Designs) DeleteRequirement(id string) bool { return r.remove(r.reqs, id) }

// SaveMD stores an MD schema under the given key ("unified" or a
// requirement-scoped key for partial designs).
func (r *Designs) SaveMD(key string, s *xmd.Schema) error {
	text, err := xmd.Marshal(s)
	if err != nil {
		return err
	}
	r.save(r.md, key, text)
	return nil
}

// MD loads an MD schema by key.
func (r *Designs) MD(key string) (*xmd.Schema, error) { return load(r, r.md, key, xmd.Unmarshal) }

// DeleteMD removes the MD schema stored under key.
func (r *Designs) DeleteMD(key string) bool { return r.remove(r.md, key) }

// SaveETL stores an ETL design under the given key.
func (r *Designs) SaveETL(key string, d *xlm.Design) error {
	text, err := xlm.Marshal(d)
	if err != nil {
		return err
	}
	r.save(r.etl, key, text)
	return nil
}

// ETL loads an ETL design by key.
func (r *Designs) ETL(key string) (*xlm.Design, error) { return load(r, r.etl, key, xlm.Unmarshal) }

// DeleteETL removes the ETL design stored under key.
func (r *Designs) DeleteETL(key string) bool { return r.remove(r.etl, key) }

// Flush writes every collection that changed since its file was last
// written (no-op without a directory). A collection whose write failed
// stays due.
func (r *Designs) Flush() error {
	if r.dir == "" {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.collections() {
		if !c.dirty {
			continue
		}
		data, err := c.encode()
		if err == nil {
			err = writeFile(r.dir, c.name, data)
		}
		if err != nil {
			return fmt.Errorf("repo: %w", err)
		}
		c.dirty = false
	}
	return nil
}

// encode renders the collection's file — the bytes of
// json.MarshalIndent of its documents in order, indented by two spaces —
// assembled from the cached per-document encodings, so only documents
// stored since the last flush are marshalled.
func (c *collection) encode() ([]byte, error) {
	if len(c.ids) == 0 {
		return []byte("[]"), nil
	}
	size := 2
	for _, id := range c.ids {
		if c.enc[id] == nil {
			// One array element: nested one level, so every line after the
			// first carries the element's own indent as its prefix.
			b, err := json.MarshalIndent(document{ID: id, Format: c.format, XML: c.text[id]}, "  ", "  ")
			if err != nil {
				return nil, err
			}
			c.enc[id] = b
		}
		size += len(c.enc[id]) + 4
	}
	out := make([]byte, 0, size)
	out = append(out, '[')
	for i, id := range c.ids {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(append(out, "\n  "...), c.enc[id]...)
	}
	return append(out, "\n]"...), nil
}

// writeFile replaces the collection's file through a rename.
func writeFile(dir, name string, data []byte) error {
	tmp := filepath.Join(dir, name+".json.tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, name+".json"))
}
