package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestJSONSmokeDeterministic runs an experiment twice through the JSON
// path on a fixed seed with timings off: the documents must be valid
// JSON, carry the experiment record, and be byte-identical. E20 is the
// experiment whose table has a wall-clock column (ms/trial), which
// -timings=false must blank along with the seconds.
func TestJSONSmokeDeterministic(t *testing.T) {
	for _, tc := range []struct {
		id   string
		args []string
	}{
		{"E1", []string{"-quick", "-trials", "2", "-seed", "1", "-only", "E1", "-json", "-timings=false"}},
		{"E20", []string{"-quick", "-trials", "1", "-only", "E20", "-json", "-timings=false"}},
	} {
		t.Run(tc.id, func(t *testing.T) {
			if tc.id == "E20" && testing.Short() {
				t.Skip("two n = {128, 256} sweeps exceed the short-test budget")
			}
			var a, b bytes.Buffer
			if err := run(tc.args, &a); err != nil {
				t.Fatalf("err = %v\n%s", err, a.String())
			}
			if err := run(tc.args, &b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("-json -timings=false output is not byte-stable across runs:\n%s\n%s", a.String(), b.String())
			}

			var suite jsonSuite
			if err := json.Unmarshal(a.Bytes(), &suite); err != nil {
				t.Fatalf("invalid JSON: %v\n%s", err, a.String())
			}
			if suite.Failures != 0 {
				t.Fatalf("suite reports %d failures", suite.Failures)
			}
			if len(suite.Experiments) != 1 || suite.Experiments[0].ID != tc.id {
				t.Fatalf("experiments = %+v, want exactly %s", suite.Experiments, tc.id)
			}
			if suite.Experiments[0].Violations != 0 {
				t.Fatalf("%s reports %d violations", tc.id, suite.Experiments[0].Violations)
			}
		})
	}
}

// TestTextMode checks the table path renders the experiment header.
func TestTextMode(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-quick", "-trials", "2", "-seed", "1", "-only", "E1"}, &out); err != nil {
		t.Fatalf("err = %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "=== E1") {
		t.Fatalf("missing experiment header:\n%s", out.String())
	}
}

// TestUsageErrors pins arguments the flags cannot mean: a stray word,
// after which Go's flag parser would silently drop every later flag, and
// negative counts, which would silently run the defaults. Each row names
// a bad -only id too, so an unchecked row fails fast on that instead of
// running the suite.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-quick", "-only", "E99", "stray"}, "unexpected arguments"},
		{[]string{"-quick", "-trials", "-1", "-only", "E99"}, "-trials = -1"},
		{[]string{"-quick", "-workers", "-2", "-only", "E99"}, "-workers = -2"},
	} {
		var out bytes.Buffer
		if err := run(tc.args, &out); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}

// TestUnknownOnly pins the error path for a bad -only id.
func TestUnknownOnly(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-quick", "-only", "E99"}, &out)
	if err == nil || !strings.Contains(err.Error(), "E99") {
		t.Fatalf("err = %v, want an E99 usage error", err)
	}
}
