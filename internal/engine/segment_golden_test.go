package engine

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"quarry/internal/storage"
	"quarry/internal/storage/manifest"
)

// segmentDigests is the sha-256 of each table's segment files (in
// segment order), by table name. Which file name a table's segment gets
// depends on the order the run's loaders finish in; its bytes do not.
func segmentDigests(t *testing.T, dir string) map[string]string {
	t.Helper()
	man, _, err := manifest.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, mt := range man.Tables {
		h := sha256.New()
		for _, seg := range mt.Segments {
			data, err := os.ReadFile(filepath.Join(dir, seg.File))
			if err != nil {
				t.Fatal(err)
			}
			h.Write(data)
		}
		out[mt.Name] = fmt.Sprintf("%x", h.Sum(nil))
	}
	return out
}

// TestSegmentBytesGolden pins the bytes the disk backend writes: the
// SF 5 canonical warehouse — the generated sources checkpointed, then
// the unified flow of the four canonical requirements run and
// committed, the path POST /api/run takes — must leave segment files
// whose digests equal the ones recorded before the page encoder was
// rebuilt on vectors and the commit made parallel. Page boundaries,
// encoding choices, dictionary order and padding all show here; the
// benchmark's disk_mb must stay bit-equal, and this says so first. (A
// failure prints each table's new digest, should a format change ever
// be deliberate.)
func TestSegmentBytesGolden(t *testing.T) {
	dir := t.TempDir()
	db, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := benchIntegratedDesignIn(t, 5, db)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(d, db); err != nil {
		t.Fatal(err)
	}
	got := segmentDigests(t, dir)
	if len(got) != len(goldenSegments) {
		t.Errorf("%d tables on disk, golden has %d", len(got), len(goldenSegments))
	}
	for name, want := range goldenSegments {
		if got[name] != want {
			t.Errorf("table %s: segment sha-256 %s, golden %s", name, got[name], want)
		}
	}
}

// Recorded at fbd5e2e (the row-walking encoder, the serial commit).
var goldenSegments = map[string]string{
	"customer":              "dbcc8c49650b1bad1ead0030b1cf7bee22325ad7fb05339f6ff03a2b77f9768a",
	"dim_customer":          "f3a7da9d716e1e069cae35c70a9c4816142e94b78e9c7807f557c6fdb77466f5",
	"dim_nation":            "0ee273a9ae6b0a80defc2939d060b4b91a6eb1e9c884b492a65e94ce314eedb1",
	"dim_orders":            "3665d51cb13846dc0478a87d0883871bee6495cd5b239bc0d67b3f7672394f00",
	"dim_part":              "959184dce09e9230bb878ab670187d01347e038162bf005b9dfa6960ee6330c5",
	"dim_region":            "7bc475da95c2b3eae2828cf20316890ac23899b5299649187afac0713ebbf6f0",
	"dim_supplier":          "c7eaf9a1e6a19b38998ca6f0cf5d2e8cff85b52f9e3d33ff77931c6dbe7c5a96",
	"fact_table_netprofit":  "1ebec8c3676c0291d8ea7300176d8f7268eac2285d618316c4fb2c0ff76e84cc",
	"fact_table_quantity":   "067fbe5b7cc140fa8fd646fa190a49f2d3b6893d02523ffa5d06ce33f33943ec",
	"fact_table_revenue":    "2e9089c4364784ee80686f101895bc50fca6d0a45cded2fc0d00dcc722dba769",
	"fact_table_supplycost": "6fd046256e902fa72704503c7f5cfd7521a03345fe4a82bf584fa36f2b43ba60",
	"lineitem":              "cc8871cba1bae8da1757ffbdc250f693d8e7ea136110d5b153ab47f5146aa3d1",
	"nation":                "039ec5966dd29a6df17a68fe460ddb19334e245dc3671879b38ffde19a270b23",
	"orders":                "60474bfc6eeedf1b5c3dcfee05512fc770d0973e327f8a9503249b55c68b86aa",
	"part":                  "5c5899de7823f6f56fce1e9ec3c038b0dba733440418200af57abdd6adf82878",
	"partsupp":              "e8fe95b9fc7e037f60244d3afccea1b0686b2017663c9a84761edbe50b0a995d",
	"region":                "7bc475da95c2b3eae2828cf20316890ac23899b5299649187afac0713ebbf6f0",
	"supplier":              "15008da11904f5dd9a673bd40f273a5a2a820ddae69d9ffb693a6a1297beb34b",
}
