package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"repro/internal/routing.(*Table).refresh", "repro/internal/routing.(*Table).Lookup"}, "routing"},
		// Standard-library frames, generic ones included, count toward
		// their caller; a type argument naming a layer does not count.
		{[]string{"runtime.memmove", "slices.pdqsortCmpFunc[go.shape.*repro/internal/sim.Packet]",
			"slices.SortFunc[go.shape.[]*repro/internal/sim.Packet]", "repro/internal/core.(*Router).forwardPass",
			"repro/internal/sim.(*Engine).apply"}, "core"},
		{[]string{"repro/internal/sim.(*Buffer).Packets", "repro/internal/core.(*Router).schedule"}, "buffer"},
		{[]string{"repro/internal/sim.(*Engine).apply", "repro/internal/sim.(*Sharded).Run"}, "sim"},
		{[]string{"repro/internal/core.(*Router).forwardPass.func1", "sort.Sort"}, "core"},
		{[]string{"runtime.mallocgc", "runtime.newobject", "repro/internal/routing.(*Table).refresh"}, "runtime_gc"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.growslice", "repro/internal/oracle.Build"}, "runtime_gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime_gc"},
		{[]string{"runtime.mapaccess2_fast64", "repro/internal/predict.(*Markov).Predict"}, "predict"},
		{[]string{"runtime.nanotime1", "time.Now", "main.(*routerProbe).OnContact", "repro/internal/sim.(*Engine).apply"}, "bench"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.findRunnable", "runtime.schedule"}, "other"},
		{[]string{"repro/internal/oracle.(*searcher).run", "repro/internal/oracle.Solve.func1"}, "oracle"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("layerOf(%q) = %q, want %q", c.frames, got, c.want)
		}
	}
	split := layerSplit([]cpuSample{
		{cases[0].frames, 2e9}, {cases[1].frames, 5e8}, {cases[2].frames, 5e8}, {cases[0].frames, 1e9},
	})
	if split["routing"] != 3 || split["core"] != 0.5 || split["buffer"] != 0.5 || len(split) != 3 {
		t.Errorf("layerSplit = %v", split)
	}
}

var sink uint64

// burnCPU spins for d on a local accumulator, so that even a race-
// instrumented build spends its time in this function's own frame.
//
//go:noinline
func burnCPU(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1e6; i++ {
			x = x*6364136223846793005 + uint64(i)
		}
	}
	sink = x
}

func TestReadCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiler unavailable:", err)
	}
	burnCPU(300 * time.Millisecond)
	pprof.StopCPUProfile()
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	samples, err := readCPUProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	split := layerSplit(samples)
	if split["bench"] < 0.1 {
		t.Errorf("burning 0.3 s of CPU in this package gave layer split %v", split)
	}
	if err := os.WriteFile(path, []byte("not a profile"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readCPUProfile(path); err == nil {
		t.Error("reading garbage succeeded")
	}
}

func TestParseTraces(t *testing.T) {
	const text = `File: perfbench
Type: cpu
Duration: 515.18ms, Total samples = 1.04s (201.87%)
-----------+-------------------------------------------------------
      10ms   runtime.asyncPreempt
             slices.Sort[go.shape.[]int,go.shape.int] (inline)
             repro/internal/core.(*Router).forwardPass
-----------+-------------------------------------------------------
     1.03s   repro/internal/routing.(*Table).refresh
             repro/internal/routing.(*Table).Lookup
-----------+-------------------------------------------------------
`
	samples, err := parseTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	want := []cpuSample{
		{[]string{"runtime.asyncPreempt", "slices.Sort[go.shape.[]int,go.shape.int]", "repro/internal/core.(*Router).forwardPass"}, 10e6},
		{[]string{"repro/internal/routing.(*Table).refresh", "repro/internal/routing.(*Table).Lookup"}, 1.03e9},
	}
	if len(samples) != len(want) {
		t.Fatalf("parsed %d samples, want %d: %+v", len(samples), len(want), samples)
	}
	for i := range want {
		if samples[i].ns != want[i].ns || !slices.Equal(samples[i].frames, want[i].frames) {
			t.Errorf("sample %d = %+v, want %+v", i, samples[i], want[i])
		}
	}
}
