package telemetry

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/trace"
)

// craftedRecordings are one- and two-line recordings that once crashed
// the inspector's default report: the dense flow matrix sized by a
// header's or an event's landmark index, and the delay histogram
// indexed by a negative or enormous delay.
var craftedRecordings = []struct {
	name    string
	data    string
	wantErr bool
}{
	{"huge header landmark count", `{"meta":{"landmarks":2000000000}}
{"t":1,"k":0,"p":0,"a":1,"b":2}`, false},
	{"huge landmark index without header", `{"t":1,"k":0,"p":0,"a":2000000000,"b":2}`, false},
	{"negative delivered delay", `{"t":1,"k":0,"p":0,"a":1,"b":2}
{"t":2,"k":3,"p":0,"a":2,"b":0,"v":-5e5}`, true},
	{"huge delivered delay", `{"t":1,"k":0,"p":0,"a":1,"b":2}
{"t":2,"k":3,"p":0,"a":2,"b":0,"v":1e18}`, false},
}

// TestCraftedRecordings pins each crafted recording to an error at load
// time or to a bounded report.
func TestCraftedRecordings(t *testing.T) {
	for _, c := range craftedRecordings {
		t.Run(c.name, func(t *testing.T) {
			log, err := ReadJSONL(strings.NewReader(c.data))
			if c.wantErr {
				if err == nil {
					t.Fatal("loaded without error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if links := log.TopLinks(10); len(links) > 1 {
				t.Errorf("top links = %v", links)
			}
			if hist := log.HopHistogram(); len(hist) > 2 {
				t.Errorf("hop histogram = %v", hist)
			}
			counts, width := log.DelayHistogram(trace.Day)
			if len(counts) > maxDelayBuckets {
				t.Errorf("delay histogram has %d buckets, cap %d", len(counts), maxDelayBuckets)
			}
			if width%trace.Day != 0 {
				t.Errorf("delay width %d is not a multiple of a day", width)
			}
		})
	}
}

// TestDenseViewsFollowNamedLandmarks builds the -flows and -loads views
// of the crafted huge-landmark recordings. Both once sized dense tables
// from the header's landmark count or the largest index named, and died
// out of memory; they must now allocate for the landmarks the events
// name, whatever the header claims.
func TestDenseViewsFollowNamedLandmarks(t *testing.T) {
	cases := []struct {
		name  string
		data  string
		lms   []int  // landmarks the views name
		links []Link // the flow matrix's nonzero entries
	}{
		{"huge header landmark count", `{"meta":{"landmarks":2000000000}}
{"t":1,"k":0,"p":0,"a":1,"b":2}
{"t":2,"k":1,"p":0,"a":1,"b":7,"h":1}
{"t":3,"k":1,"p":0,"a":7,"b":1999999999}`, []int{1, 1999999999}, []Link{{1, 1999999999, 1}}},
		{"huge landmark index without header", `{"t":1,"k":0,"p":0,"a":2000000000,"b":2}
{"t":2,"k":1,"p":0,"a":2000000000,"b":7,"h":1}
{"t":3,"k":1,"p":0,"a":7,"b":3}`, []int{3, 2000000000}, []Link{{2000000000, 3, 1}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			log, err := ReadJSONL(strings.NewReader(c.data))
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			lms, links := log.FlowMatrix()
			loads := log.LandmarkLoads()
			runtime.ReadMemStats(&after)
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
				t.Errorf("views allocated %d bytes for a three-event recording", alloc)
			}
			if !reflect.DeepEqual(lms, c.lms) || !reflect.DeepEqual(links, c.links) {
				t.Errorf("flow matrix = %v over %v, want %v over %v", links, lms, c.links, c.lms)
			}
			var got []int
			for _, ld := range loads {
				got = append(got, ld.Landmark)
			}
			if !reflect.DeepEqual(got, c.lms) {
				t.Errorf("load table landmarks = %v, want %v", got, c.lms)
			}
		})
	}
}

// TestReadJSONLRejects checks each validation rule of ReadJSONL.
func TestReadJSONLRejects(t *testing.T) {
	const hdr = `{"meta":{"landmarks":3}}` + "\n"
	for _, c := range []struct {
		name, data string
	}{
		{"negative header landmarks", `{"meta":{"landmarks":-1}}`},
		{"generated src", hdr + `{"t":0,"k":0,"p":0,"a":3,"b":0}`},
		{"generated dst", hdr + `{"t":0,"k":0,"p":0,"a":0,"b":-1}`},
		{"upload station", hdr + `{"t":0,"k":1,"p":0,"a":7,"b":3}`},
		{"download station", hdr + `{"t":0,"k":1,"h":1,"p":0,"a":3,"b":7}`},
		{"queued", hdr + `{"t":0,"k":2,"p":0,"a":5,"x":1}`},
		{"delivered landmark", hdr + `{"t":0,"k":3,"p":0,"a":3,"v":1}`},
		{"assigned hop", hdr + `{"t":0,"k":5,"p":0,"a":0,"b":4}`},
		{"exchange", hdr + `{"t":0,"k":6,"p":-1,"a":9,"b":0}`},
		{"recompute", hdr + `{"t":0,"k":7,"p":-1,"a":-2}`},
		{"predict actual", hdr + `{"t":0,"k":8,"p":-1,"a":0,"b":1,"x":3}`},
		{"queuedepth", hdr + `{"t":0,"k":9,"p":-1,"a":3}`},
		{"decision candidate", hdr + `{"t":0,"k":10,"p":0,"a":0,"b":3}`},
		{"negative delay", `{"t":0,"k":3,"p":0,"a":0,"v":-1}`},
		{"delay past every time", `{"t":0,"k":3,"p":0,"a":0,"v":1e300}`},
	} {
		if _, err := ReadJSONL(strings.NewReader(c.data)); err == nil {
			t.Errorf("%s: loaded without error", c.name)
		}
	}
	// Node ids are not landmark indices, and a zero landmark count (no
	// header, or a header from a meta-less log) leaves indices unchecked.
	for _, data := range []string{
		hdr + `{"t":0,"k":1,"p":0,"a":7,"b":2}`,
		hdr + `{"t":0,"k":1,"h":2,"p":0,"a":7,"b":8}`,
		hdr + `{"t":0,"k":8,"p":-1,"a":9,"b":1,"x":2}`,
		`{"meta":{"landmarks":0}}` + "\n" + `{"t":0,"k":0,"p":0,"a":5,"b":6}`,
		`{"t":0,"k":0,"p":0,"a":5,"b":6}`,
	} {
		if _, err := ReadJSONL(strings.NewReader(data)); err != nil {
			t.Errorf("%q: %v", data, err)
		}
	}
}

// TestDelayHistogramWidens checks the bucket cap: a short delay keeps
// the requested width, and a delay past maxDelayBuckets widths widens it
// to a multiple of the request.
func TestDelayHistogramWidens(t *testing.T) {
	rec := NewRecorder(8)
	p := NewProbe(rec)
	p.Generated(0, 0, 0, 1)
	p.Delivered(20*trace.Day, 0, 1, 20*trace.Day)
	counts, width := NewLog(rec, Meta{}).DelayHistogram(trace.Day)
	if width != trace.Day || len(counts) != 21 || counts[20] != 1 {
		t.Errorf("20-day delay: width %d, counts %v", width, counts)
	}

	p.Generated(0, 1, 0, 1)
	p.Delivered(5000*trace.Day, 1, 1, 5000*trace.Day)
	counts, width = NewLog(rec, Meta{}).DelayHistogram(trace.Day)
	if width != 5*trace.Day || len(counts) != 1001 || counts[4] != 1 || counts[1000] != 1 {
		t.Errorf("5000-day delay: width %d, %d buckets", width, len(counts))
	}
}
