package xrq_test

import (
	"os"
	"testing"

	"quarry/internal/tpch"
	"quarry/internal/xrq"
)

// FuzzXRQUnmarshal feeds the xRQ reader what POST /api/requirements and
// a repository restore feed it: bytes from outside. Reading must not
// panic, nor must validating what was read; and whatever reads writes
// an xRQ text that reads back to itself —
// Marshal(Unmarshal(Marshal(r))) == Marshal(r).
func FuzzXRQUnmarshal(f *testing.F) {
	for _, r := range tpch.CanonicalRequirements() {
		text, err := xrq.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(text)
	}
	paper, err := os.ReadFile("testdata/paper_style.xrq")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(paper))
	onto, err := tpch.Ontology()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, src string) {
		r, err := xrq.Unmarshal(src)
		if err != nil {
			return
		}
		_ = r.Validate(onto)
		once, err := xrq.Marshal(r)
		if err != nil {
			t.Fatalf("marshalling what was read: %v", err)
		}
		back, err := xrq.Unmarshal(once)
		if err != nil {
			t.Fatalf("reading the marshalled form back: %v\n%s", err, once)
		}
		twice, err := xrq.Marshal(back)
		if err != nil {
			t.Fatalf("marshalling the second read: %v", err)
		}
		if twice != once {
			t.Fatalf("not a fixpoint:\n%s\nbecame\n%s", once, twice)
		}
	})
}
