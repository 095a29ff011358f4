// Package benchfile records labeled benchmark runs in the committed
// BENCH_*.json files. Each file, or each named section of one, holds a
// benchmark name, the time of its last update and a map of runs by label,
// so a full sweep and a CI smoke run land side by side.
package benchfile

import (
	"encoding/json"
	"os"
	"time"
)

// Merge stores run as runs[label] of the benchmark record in the JSON file
// at path and sets the record's benchmark name and update time. The record
// is the file's top level when section is empty, and the top-level object
// named section otherwise. Every other label and every other field, at the
// top level and in the record, is kept as it was. A missing, unreadable or
// malformed file is replaced by one holding only this run.
func Merge(path, section, benchmark, label string, run any) error {
	runRaw, err := json.Marshal(run)
	if err != nil {
		return err
	}
	old, _ := os.ReadFile(path) // an unreadable file decodes as empty
	top := object(old)
	rec := top
	if section != "" {
		rec = object(top[section])
	}
	runs := object(rec["runs"])
	runs[label] = runRaw
	rec["runs"] = encode(runs)
	rec["benchmark"] = encode(benchmark)
	rec["updated_unix"] = encode(time.Now().Unix())
	if section != "" {
		top[section] = encode(rec)
	}
	b, err := json.MarshalIndent(top, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// object decodes raw as a JSON object, or returns an empty one when raw is
// absent or not an object.
func object(raw []byte) map[string]json.RawMessage {
	var m map[string]json.RawMessage
	if json.Unmarshal(raw, &m) != nil || m == nil {
		return map[string]json.RawMessage{}
	}
	return m
}

// encode marshals a value that cannot fail to encode: a string, an integer
// or an object of already-valid JSON.
func encode(v any) json.RawMessage {
	b, _ := json.Marshal(v)
	return b
}
