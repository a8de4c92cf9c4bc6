package manifest

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzManifestRender holds Render to json.MarshalIndent over manifests
// parsed from the fuzzer's bytes: the segment entries RenderSegment
// renders, assembled with the tables' names and columns, are the bytes
// MarshalIndent writes for the whole catalog.
func FuzzManifestRender(f *testing.F) {
	for _, seed := range []string{
		`{"format":2,"version":3,"tables":[{"name":"t","columns":[{"name":"i","type":"int"}],"segments":[` +
			`{"file":"seg-00000001.qseg","rows":2,"format":2,"pages":[{"off":0,"size":4096,"rows":2,"raw":40,` +
			`"zones":[{"nulls":1,"min":{"i":-3},"max":{"i":9}}]}]},` +
			`{"file":"seg-00000002.qseg","rows":1,"format":2,"pages":[{"off":0,"size":4096,"rows":1,"raw":20,"zones":[{}]}]}]},` +
			`{"name":"empty","columns":[{"name":"s","type":"string"}]}]}`,
		`{"format":2,"version":1,"tables":[{"name":"q\"<&> é","columns":[{"name":"\t\\","type":"float"}],"segments":[` +
			`{"file":"seg-00000007.qseg","rows":1,"pages":[{"off":0,"size":4096,"rows":1,"zones":[{"min":{"f":1.5e-300},"max":{"s":"<x>"}}]}]}]}]}`,
		`{"format":2,"version":0,"tables":[]}`,
		`{"format":2,"version":0}`,
		`{"tables":[{"name":"","columns":[]},{"name":"n","columns":null,"segments":[{"pages":[]},{"pages":null}]}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Manifest
		if json.Unmarshal(data, &m) != nil {
			return
		}
		want, err := json.MarshalIndent(&m, "", "  ")
		if err != nil {
			t.Fatalf("MarshalIndent of a parsed manifest: %v", err)
		}
		entries := make([][][]byte, len(m.Tables))
		for ti, mt := range m.Tables {
			for _, s := range mt.Segments {
				e, err := RenderSegment(s)
				if err != nil {
					t.Fatalf("RenderSegment: %v", err)
				}
				entries[ti] = append(entries[ti], e)
			}
		}
		if got := Render(&m, entries); !bytes.Equal(got, want) {
			t.Fatalf("Render:\n%s\nMarshalIndent:\n%s", got, want)
		}
	})
}
