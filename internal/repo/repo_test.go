package repo

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"quarry/internal/tpch"
	"quarry/internal/xrq"
)

// requirement is the revenue requirement under another id.
func requirement(id string) *xrq.Requirement {
	r := tpch.RevenueRequirement().Clone()
	r.ID = id
	return r
}

func ids(reqs []*xrq.Requirement) []string {
	out := []string{}
	for _, r := range reqs {
		out = append(out, r.ID)
	}
	return out
}

func TestWithoutDirectory(t *testing.T) {
	if err := Write("", []*xrq.Requirement{requirement("IR_a")}); err != nil {
		t.Fatal(err)
	}
	reqs, err := Load("")
	if err != nil || reqs != nil {
		t.Fatalf("Load(\"\") = %v, %v; want nothing", reqs, err)
	}
}

// TestWriteBytes: the file is byte for byte the MarshalIndent of the
// requirements' documents in order — through replacements, deletions,
// characters JSON escapes and an empty list — and Load reads back the
// same requirements.
func TestWriteBytes(t *testing.T) {
	dir := t.TempDir()
	if reqs, err := Load(dir); err != nil || len(reqs) != 0 {
		t.Fatalf("Load of an empty directory = %v, %v", ids(reqs), err)
	}
	odd := requirement("IR_odd")
	odd.Name = "quotes \" and <tags> & ümlauts é\n\ttabs,   and \x7f"
	for _, list := range [][]*xrq.Requirement{
		{tpch.RevenueRequirement()},
		{tpch.RevenueRequirement(), odd, tpch.NetProfitRequirement()},
		{tpch.RevenueRequirement(), tpch.NetProfitRequirement()},
		{},
		{tpch.NetProfitRequirement(), tpch.RevenueRequirement()},
	} {
		if err := Write(dir, list); err != nil {
			t.Fatal(err)
		}
		docs := make([]document, 0, len(list))
		for _, r := range list {
			text, err := xrq.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			docs = append(docs, document{ID: r.ID, Format: "xRQ", XML: text})
		}
		want, err := json.MarshalIndent(docs, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, "requirements.json"))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("%v: requirements.json is\n%s\nwant\n%s", ids(list), got, want)
		}
		back, err := Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ids(back), ids(list)) {
			t.Fatalf("Load = %v, want %v", ids(back), ids(list))
		}
		for i, r := range back {
			if r.Name != list[i].Name {
				t.Fatalf("%s: name %q, want %q", r.ID, r.Name, list[i].Name)
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "requirements.json" {
		t.Fatalf("directory holds %v, want requirements.json only", entries)
	}
}

// TestFailedWriteKeepsTheList: a write that fails leaves the stored
// list as it was, and the next write replaces it.
func TestFailedWriteKeepsTheList(t *testing.T) {
	dir := t.TempDir()
	if err := Write(dir, []*xrq.Requirement{requirement("IR_a")}); err != nil {
		t.Fatal(err)
	}
	// A directory where the temporary file goes makes the write fail.
	block := filepath.Join(dir, "requirements.json.tmp")
	if err := os.Mkdir(block, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := Write(dir, []*xrq.Requirement{requirement("IR_a"), requirement("IR_b")}); err == nil {
		t.Fatal("write over a blocked path succeeded")
	}
	if reqs, err := Load(dir); err != nil || !reflect.DeepEqual(ids(reqs), []string{"IR_a"}) {
		t.Fatalf("after the failed write Load = %v, %v; want [IR_a]", ids(reqs), err)
	}
	if err := os.Remove(block); err != nil {
		t.Fatal(err)
	}
	if err := Write(dir, []*xrq.Requirement{requirement("IR_b")}); err != nil {
		t.Fatal(err)
	}
	if reqs, err := Load(dir); err != nil || !reflect.DeepEqual(ids(reqs), []string{"IR_b"}) {
		t.Fatalf("after the second write Load = %v, %v; want [IR_b]", ids(reqs), err)
	}
}

// TestOpenCorruptCollection: a requirements file that is not an array
// of documents, or holds a document without an id or text or a repeated
// id, fails Load naming the document; design files an older build left
// beside it are not read, whatever they hold.
func TestOpenCorruptCollection(t *testing.T) {
	for _, c := range []struct{ data, want string }{
		{"not json", "collection requirements corrupt"},
		{`{"_id": "IR_a"}`, "collection requirements corrupt"},
		{`[{"format": "xRQ", "xml": "<a/>"}]`, "requirements: document 0 has no _id"},
		{`[{"_id": "IR_a", "format": "xRQ", "json": {}}]`, "requirements: IR_a has no xml"},
		{`[{"_id": "IR_a", "xml": "<a/>"}, {"_id": "IR_a", "xml": "<b/>"}]`, `requirements: duplicate _id "IR_a"`},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "requirements.json"), []byte(c.data), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(dir)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Load over %s: error %v, want one containing %q", c.data, err, c.want)
		}
	}

	dir := t.TempDir()
	if err := Write(dir, []*xrq.Requirement{requirement("IR_a")}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"md_designs.json", "etl_designs.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("not json"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if reqs, err := Load(dir); err != nil || !reflect.DeepEqual(ids(reqs), []string{"IR_a"}) {
		t.Fatalf("Load beside older design files = %v, %v; want [IR_a]", ids(reqs), err)
	}
}
