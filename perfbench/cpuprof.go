package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// The traced run's CPU profile is split into layers: each sample's CPU
// time goes to the first frame, walking from the leaf, that names a layer.
// That frame is a function of a repro/internal package (sim.(*Buffer)
// methods count as their own layer, "buffer"), a function of the
// benchmark itself ("bench", its probes), or a garbage-collector or
// allocator frame ("runtime_gc"). Standard-library frames such as
// slices.* and other runtime helpers name no layer, so they count toward
// their caller. A stack that names no layer is "other" (the scheduler,
// idle timers).

// gcFrames are the runtime function-name prefixes charged to runtime_gc:
// the collector, write barriers, and the allocator's entry points.
var gcFrames = []string{
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
	"runtime.markroot", "runtime.scanobject", "runtime.scanblock", "runtime.scanstack",
	"runtime.greyobject", "runtime.findObject", "runtime.wbBuf", "runtime.bulkBarrier",
	"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
	"runtime.makemap", "runtime.growslice", "runtime.heapSetType",
	"runtime.(*gcWork)", "runtime.(*gcControllerState)", "runtime.(*gcBits)",
	"runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mspan)",
	"runtime.(*pageAlloc)", "runtime.(*sweepLocked)",
}

// layerOf returns the layer a sample is charged to; frames lists the
// sample's functions, leaf first.
func layerOf(frames []string) string {
	for _, f := range frames {
		if pkg, ok := strings.CutPrefix(f, "repro/internal/"); ok {
			if strings.HasPrefix(pkg, "sim.(*Buffer).") {
				return "buffer"
			}
			if i := strings.IndexByte(pkg, '.'); i > 0 {
				return pkg[:i]
			}
			return pkg
		}
		if strings.HasPrefix(f, "main.") || strings.HasPrefix(f, "repro/perfbench.") {
			return "bench" // the binary, or its test binary
		}
		for _, g := range gcFrames {
			if strings.HasPrefix(f, g) {
				return "runtime_gc"
			}
		}
	}
	return "other"
}

// cpuSample is one profile sample: its stack (function names, leaf
// first) and its CPU time.
type cpuSample struct {
	frames []string
	ns     int64
}

// layerSplit sums CPU seconds per layer.
func layerSplit(samples []cpuSample) map[string]float64 {
	out := map[string]float64{}
	for _, s := range samples {
		out[layerOf(s.frames)] += float64(s.ns) / 1e9
	}
	return out
}

// readCPUProfile reads the samples of a CPU profile file with the Go
// toolchain's own reader: `go tool pprof -traces` prints each sample as a
// separator line, then its CPU time and leaf frame, then one caller frame
// a line, inlined frames marked "(inline)".
func readCPUProfile(path string) ([]cpuSample, error) {
	var stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	return parseTraces(string(out))
}

// parseTraces parses the output of `go tool pprof -traces`.
func parseTraces(text string) ([]cpuSample, error) {
	var out []cpuSample
	var cur *cpuSample
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			cur = nil
			continue
		}
		if len(line) < 13 || line[10:13] != "   " {
			continue // the header, or a sample's label line
		}
		frame := strings.TrimSuffix(line[13:], " (inline)")
		if value := strings.TrimSpace(line[:10]); value != "" {
			d, err := time.ParseDuration(value)
			if err != nil {
				return nil, fmt.Errorf("go tool pprof: sample value %q: %v", value, err)
			}
			out = append(out, cpuSample{ns: int64(d)})
			cur = &out[len(out)-1]
		}
		if cur == nil {
			return nil, fmt.Errorf("go tool pprof: frame %q outside a sample", frame)
		}
		cur.frames = append(cur.frames, frame)
	}
	return out, nil
}
