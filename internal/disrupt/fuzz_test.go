package disrupt

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// FuzzParse asserts the -disrupt argument contract: Parse either returns
// an error, or a spec that passes Validate against the same dimensions
// and whose Apply and Events run without panicking, with Events sorted
// by time. An argument starting with '{' is a JSON spec, written to a
// file and parsed through the @path form; every other argument is a
// preset name. The seeds are every preset plus one JSON spec touching all
// five families.
func FuzzParse(f *testing.F) {
	span := 10 * int64(trace.Day)
	for _, name := range PresetNames {
		f.Add(name, 20, 8, int64(0), span)
	}
	f.Add(`{"seed":3,"outages":[{"landmark":7,"start":0,"end":10}],
		"links":[{"from":0,"to":7,"start":0,"end":10,"drop_prob":0.5}],
		"churn":[{"node":19,"down":5,"up":9}],
		"drifts":[{"at":4,"mod":2,"rem":1,"shift":3}],
		"crowds":[{"start":0,"end":10,"landmarks":[0,7],"rate":100}]}`, 20, 8, int64(0), span)
	path := filepath.Join(f.TempDir(), "spec.json")
	f.Fuzz(func(t *testing.T, arg string, nodes, landmarks int, start, end int64) {
		if strings.HasPrefix(arg, "{") {
			if err := os.WriteFile(path, []byte(arg), 0o644); err != nil {
				t.Fatal(err)
			}
			arg = "@" + path
		} else if strings.HasPrefix(arg, "@") || strings.HasSuffix(arg, ".json") {
			t.Skip("only the fuzzer's own spec file may be read")
		}
		sp, err := Parse(arg, nodes, landmarks, trace.Time(start), trace.Time(end))
		if err != nil {
			return
		}
		if err := sp.Validate(nodes, landmarks); err != nil {
			t.Fatalf("Parse(%q) returned a spec that fails Validate: %v", arg, err)
		}
		sp.Apply(&sim.Config{}, &sim.Workload{})
		evs := sp.Events()
		for i := 1; i < len(evs); i++ {
			if evs[i].T < evs[i-1].T {
				t.Fatalf("Events() not sorted by time at %d: %+v", i, evs)
			}
		}
	})
}
