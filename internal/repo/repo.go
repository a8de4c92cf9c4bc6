// Package repo implements the storage half of Quarry's Communication
// & Metadata layer (§2.5–2.6): the durable image of the platform's
// information requirements (xRQ), in registration order.
//
// The requirements are the whole lifecycle: the partial and unified MD
// schemata (xMD) and ETL designs (xLM) are derived from them, at every
// change and again at every restart, so none is stored. The paper backs
// this layer with MongoDB and a generic XML-JSON-XML parser; here the
// list is one file, "requirements.json": an indented JSON array of
// {"_id", "format", "xml"} documents, each requirement's canonical XML
// text, replaced whole through a temporary file and a rename. Files that
// still carry a "json" key beside the text read unchanged: the key is
// ignored. Directories written by older builds may also hold
// md_designs.json and etl_designs.json; they are not read.
package repo

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"quarry/internal/xrq"
)

const file = "requirements.json"

// document is one element of the file.
type document struct {
	ID     string `json:"_id"`
	Format string `json:"format"`
	XML    string `json:"xml"`
}

// Load returns the requirements stored in dir, in order; none without a
// directory or a file. dir is created if missing, so an unusable
// directory fails at start-up rather than at the first change. A
// document with no "_id" or no "xml", or a repeated "_id", fails the
// load.
func Load(dir string) ([]*xrq.Requirement, error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("repo: %w", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, file))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("repo: %w", err)
	}
	var docs []document
	if err := json.Unmarshal(data, &docs); err != nil {
		return nil, fmt.Errorf("repo: collection requirements corrupt: %w", err)
	}
	seen := map[string]bool{}
	for i, d := range docs {
		switch {
		case d.ID == "":
			return nil, fmt.Errorf("repo: collection requirements: document %d has no _id", i)
		case d.XML == "":
			return nil, fmt.Errorf("repo: collection requirements: %s has no xml", d.ID)
		case seen[d.ID]:
			return nil, fmt.Errorf("repo: collection requirements: duplicate _id %q", d.ID)
		}
		seen[d.ID] = true
	}
	reqs := make([]*xrq.Requirement, 0, len(docs))
	for _, d := range docs {
		r, err := xrq.Unmarshal(d.XML)
		if err != nil {
			return nil, fmt.Errorf("repo: collection requirements: %s: %w", d.ID, err)
		}
		reqs = append(reqs, r)
	}
	return reqs, nil
}

// Write replaces the stored requirements of dir with reqs, in order
// (no-op without a directory). The file is written whole under a
// temporary name and renamed over the old one, so a failed write leaves
// the previous list in place.
func Write(dir string, reqs []*xrq.Requirement) error {
	if dir == "" {
		return nil
	}
	docs := make([]document, 0, len(reqs))
	for _, r := range reqs {
		text, err := xrq.Marshal(r)
		if err != nil {
			return err
		}
		docs = append(docs, document{ID: r.ID, Format: "xRQ", XML: text})
	}
	data, err := json.MarshalIndent(docs, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, file+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("repo: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, file)); err != nil {
		return fmt.Errorf("repo: %w", err)
	}
	return nil
}
