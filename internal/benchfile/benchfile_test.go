package benchfile

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestMerge pins the merge: the label is replaced, every other label and
// every other field survives unchanged, and an unreadable file is replaced.
func TestMerge(t *testing.T) {
	type run struct {
		Requests int `json:"requests"`
	}
	cases := []struct {
		name    string
		old     string // "" leaves the file absent
		section string
		want    string // the file after Merge(…, "zipf", run{7}), updated_unix aside
	}{
		{
			name: "absent file",
			want: `{"benchmark":"b","runs":{"zipf":{"requests":7}}}`,
		},
		{
			name: "top level",
			old:  `{"benchmark":"old","updated_unix":1,"note":"kept","runs":{"uniform":{"requests":1,"extra":[1,2]},"zipf":{"requests":2}}}`,
			want: `{"benchmark":"b","note":"kept","runs":{"uniform":{"requests":1,"extra":[1,2]},"zipf":{"requests":7}}}`,
		},
		{
			name:    "section beside other sections",
			old:     `{"micro":{"rows":[{"ns":46.6}]},"collect":{"note":"PR 5"},"sampling":{"benchmark":"old","updated_unix":1,"runs":{"full":{"requests":3}}}}`,
			section: "sampling",
			want:    `{"micro":{"rows":[{"ns":46.6}]},"collect":{"note":"PR 5"},"sampling":{"benchmark":"b","runs":{"full":{"requests":3},"zipf":{"requests":7}}}}`,
		},
		{
			name:    "new section",
			old:     `{"micro":{"rows":[]}}`,
			section: "sampling",
			want:    `{"micro":{"rows":[]},"sampling":{"benchmark":"b","runs":{"zipf":{"requests":7}}}}`,
		},
		{
			name: "unreadable file",
			old:  `{"runs": {"uniform": `,
			want: `{"benchmark":"b","runs":{"zipf":{"requests":7}}}`,
		},
		{
			name: "not an object",
			old:  `[1, 2]`,
			want: `{"benchmark":"b","runs":{"zipf":{"requests":7}}}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "BENCH.json")
			if tc.old != "" {
				if err := os.WriteFile(path, []byte(tc.old), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if err := Merge(path, tc.section, "b", "zipf", run{7}); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var got, want map[string]any
			if err := json.Unmarshal(raw, &got); err != nil {
				t.Fatalf("merged file is not a JSON object: %v\n%s", err, raw)
			}
			if err := json.Unmarshal([]byte(tc.want), &want); err != nil {
				t.Fatal(err)
			}
			rec := got
			if tc.section != "" {
				rec, _ = got[tc.section].(map[string]any)
			}
			if u, ok := rec["updated_unix"].(float64); !ok || u < 2 {
				t.Errorf("updated_unix = %v, want the current time", rec["updated_unix"])
			}
			delete(rec, "updated_unix")
			if !reflect.DeepEqual(got, want) {
				t.Errorf("merged file\n%s\nwant\n%s", raw, tc.want)
			}
		})
	}
}
