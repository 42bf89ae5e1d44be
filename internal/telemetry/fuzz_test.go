package telemetry

import (
	"strings"
	"testing"
)

// FuzzReadJSONL asserts that a recording either fails to load with an
// error or yields a log every default inspector view can report on —
// never a panic or an allocation sized by a hostile number. The seeds
// are a valid recording plus the crafted recordings of
// TestCraftedRecordings.
func FuzzReadJSONL(f *testing.F) {
	f.Add(`{"meta":{"scenario":"DART","landmarks":3}}
{"t":0,"k":0,"p":0,"a":0,"b":1}
{"t":1,"k":1,"h":1,"p":0,"a":0,"b":9}
{"t":5,"k":1,"p":0,"a":9,"b":2}
{"t":5,"k":2,"p":0,"a":2,"b":0,"x":1}
{"t":9,"k":3,"p":0,"a":1,"b":0,"v":9}
{"t":9,"k":4,"p":1,"a":0,"b":0,"x":1}`)
	for _, c := range craftedRecordings {
		f.Add(c.data)
	}
	f.Fuzz(func(t *testing.T, data string) {
		log, err := ReadJSONL(strings.NewReader(data))
		if err != nil {
			return
		}
		log.Packets()
		log.TopLinks(10)
		log.HopHistogram()
		if counts, _ := log.DelayHistogram(0); len(counts) > maxDelayBuckets {
			t.Fatalf("delay histogram has %d buckets, cap %d", len(counts), maxDelayBuckets)
		}
	})
}
