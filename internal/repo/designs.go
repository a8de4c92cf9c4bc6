package repo

import (
	"fmt"

	"quarry/internal/xlm"
	"quarry/internal/xmd"
	"quarry/internal/xmljson"
	"quarry/internal/xrq"
)

// Designs is the typed repository the Quarry components use on top of
// the raw document store: requirements and designs go in as XML
// (their canonical interchange form), are stored as JSON documents
// via the generic XML-JSON-XML parser — exactly the paper's
// arrangement — and come back out as XML-parsed structures.
type Designs struct {
	store *Store
}

// Collection names used by the lifecycle.
const (
	colRequirements = "requirements"
	colMD           = "md_designs"
	colETL          = "etl_designs"
)

// NewDesigns wraps a store.
func NewDesigns(s *Store) *Designs {
	return &Designs{store: s}
}

// SaveRequirement stores a requirement keyed by its ID, recording the
// raw xRQ text and its JSON projection.
func (r *Designs) SaveRequirement(req *xrq.Requirement) error {
	text, err := xrq.Marshal(req)
	if err != nil {
		return err
	}
	return r.saveXML(colRequirements, req.ID, "xRQ", text)
}

// Requirement loads a requirement by ID.
func (r *Designs) Requirement(id string) (*xrq.Requirement, error) {
	text, err := r.loadXML(colRequirements, id)
	if err != nil {
		return nil, err
	}
	return xrq.Unmarshal(text)
}

// Requirements lists all stored requirement IDs in insertion order.
func (r *Designs) Requirements() []string {
	var out []string
	for _, d := range r.store.Collection(colRequirements).All() {
		if id, ok := d["_id"].(string); ok {
			out = append(out, id)
		}
	}
	return out
}

// DeleteRequirement removes a requirement (requirement evolution).
func (r *Designs) DeleteRequirement(id string) bool {
	return r.store.Collection(colRequirements).Delete(id)
}

// SaveMD stores an MD schema under the given key ("unified" or a
// requirement-scoped key for partial designs).
func (r *Designs) SaveMD(key string, s *xmd.Schema) error {
	text, err := xmd.Marshal(s)
	if err != nil {
		return err
	}
	return r.saveXML(colMD, key, "xMD", text)
}

// MD loads an MD schema by key.
func (r *Designs) MD(key string) (*xmd.Schema, error) {
	text, err := r.loadXML(colMD, key)
	if err != nil {
		return nil, err
	}
	return xmd.Unmarshal(text)
}

// DeleteMD removes the MD schema stored under key.
func (r *Designs) DeleteMD(key string) bool {
	return r.store.Collection(colMD).Delete(key)
}

// SaveETL stores an ETL design under the given key.
func (r *Designs) SaveETL(key string, d *xlm.Design) error {
	text, err := xlm.Marshal(d)
	if err != nil {
		return err
	}
	return r.saveXML(colETL, key, "xLM", text)
}

// ETL loads an ETL design by key.
func (r *Designs) ETL(key string) (*xlm.Design, error) {
	text, err := r.loadXML(colETL, key)
	if err != nil {
		return nil, err
	}
	return xlm.Unmarshal(text)
}

// DeleteETL removes the ETL design stored under key.
func (r *Designs) DeleteETL(key string) bool {
	return r.store.Collection(colETL).Delete(key)
}

// saveXML stores the XML text and its JSON projection in one
// document — the XML-JSON-XML round trip of the metadata layer.
func (r *Designs) saveXML(collection, id, format, text string) error {
	jsonDoc, err := xmljson.DecodeString(text)
	if err != nil {
		return fmt.Errorf("repo: converting %s to JSON: %w", format, err)
	}
	r.store.Collection(collection).Put(id, Doc{
		"format": format,
		"xml":    text,
		"json":   map[string]any(jsonDoc),
	})
	return nil
}

// loadXML retrieves the XML text of a stored document, regenerating
// it from the JSON projection when the raw text is missing (the
// XML-JSON-XML parser working in the other direction).
func (r *Designs) loadXML(collection, id string) (string, error) {
	d, ok := r.store.Collection(collection).Get(id)
	if !ok {
		return "", fmt.Errorf("repo: %s/%s not found", collection, id)
	}
	if text, ok := d["xml"].(string); ok && text != "" {
		return text, nil
	}
	j, ok := d["json"].(map[string]any)
	if !ok {
		return "", fmt.Errorf("repo: %s/%s has neither xml nor json payload", collection, id)
	}
	return xmljson.EncodeString(j)
}

// Flush persists the underlying store.
func (r *Designs) Flush() error { return r.store.Flush() }
