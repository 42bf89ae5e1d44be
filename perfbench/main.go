// Command perfbench is the repository benchmark. It runs one workload
// for a given time and prints its end-to-end metrics, or, with -trace 1,
// makes one traced run and prints the per-layer metrics. Run it from the
// repository root through its build script:
//
//	bash perfbench/run.sh --workload dart-mobility --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}.
// Lines before it give the host stamp and, for a traced run, the CPU
// share of each layer. README.md explains the workloads and the metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
)

// nproc pins every worker count: sharded shards, stream fill, oracle
// build and solve, and sweep runs.
var nproc = runtime.NumCPU()

// minReps is the fewest measured calls an untraced run makes, however
// short --seconds is; the reported figures are medians over the calls.
// Set-up is short and so noisier than the call: after every call it is
// repeated on its own, at least setupsPerCall times and for setupSlice
// (at most maxSetupsPerCall times), so that its samples spread over the
// run as the calls do and a slow spell of the host moves few of them.
const (
	minReps          = 3
	setupsPerCall    = 5
	maxSetupsPerCall = 40
	setupSlice       = 500 * time.Millisecond
)

// metricDef names one reported metric and its unit. The tables below
// are BENCHMARK.json's end_to_end and per_layer lists (main_test.go
// checks that they agree).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"visits_per_s", "1/s"},
	{"peak_heap_mib", "MiB"},
	{"alloc_mib", "MiB"},
	{"success_rate", "ratio"},
	{"mean_delay_h", "h"},
	{"forwarding_cost", "ops/packet"},
}

// cpuLayers are the layers whose profile share is reported as
// cpu.<layer>_s; every other layer's samples go to cpu.other_s.
var cpuLayers = []string{
	"routing", "core", "predict", "buffer", "sim", "synth", "disrupt", "trace",
	"oracle", "baselines", "experiment", "metrics", "runtime_gc", "bench",
}

var perLayer = func() []metricDef {
	d := []metricDef{
		{"trace_overhead", "ratio"},
		{"synth.next_s", "s"}, {"synth.next_calls", "count"}, {"synth.visits", "count"}, {"synth.scan_s", "s"},
		{"disrupt.next_s", "s"},
		{"sim.run_s", "s"}, {"sim.self_s", "s"}, {"sim.noop_run_s", "s"},
		{"sim.epochs", "count"}, {"sim.events", "count"}, {"sim.inits", "count"},
		{"core.contact_s", "s"}, {"core.contact_calls", "count"},
		{"core.contact_p50_us", "us"}, {"core.contact_p99_us", "us"},
		{"core.generate_s", "s"}, {"core.generate_calls", "count"}, {"core.generate_p99_us", "us"},
		{"core.depart_s", "s"}, {"core.depart_calls", "count"},
		{"core.unit_s", "s"}, {"core.unit_calls", "count"},
		{"routing.table_gen", "count"}, {"routing.reachable", "count"},
		{"predict.accuracy", "ratio"},
		{"fork.clones", "count"}, {"fork.clone_s", "s"},
		{"experiment.scenario_s", "s"}, {"experiment.sweep_s", "s"},
		{"oracle.materialize_s", "s"}, {"oracle.build_s", "s"}, {"oracle.relaxed_s", "s"},
		{"oracle.commit_s", "s"}, {"oracle.edges", "count"}, {"oracle.packets", "count"},
		{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"}, {"runtime.gc_cpu_frac", "ratio"},
	}
	// The five comparison methods follow DTN-FLOW in MethodNames.
	for _, m := range experiment.MethodNames[1:] {
		d = append(d, metricDef{"baselines." + m + ".callback_s", "s"})
	}
	for _, l := range cpuLayers {
		d = append(d, metricDef{"cpu." + l + "_s", "s"})
	}
	return append(d, metricDef{"cpu.other_s", "s"}, metricDef{"cpu.total_s", "s"})
}()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "workload seed")
	secs := fs.Int("seconds", 20, "how long an untraced run measures")
	traced := fs.Int("trace", 0, "1 makes one traced run and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	stamp, _ := json.Marshal(hostStamp(*name, *seed))
	fmt.Fprintf(stdout, "host %s\n", stamp)

	var res result
	if *traced == 1 {
		res = traceRun(w, stdout, stderr)
	} else {
		res = measure(w, time.Duration(*secs)*time.Second, stderr)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// sample is what one measured call cost and produced.
type sample struct {
	setup, wall float64 // seconds
	peak, alloc float64 // MiB
	rt          runtimeDelta
	out         outcome
}

// once builds the inputs of one call and makes it. With prof set, the
// call (not the set-up) runs under the CPU profiler.
func once(w workload, t *tracer, prof io.Writer) (s sample, p prepared, err error) {
	runtime.GC()
	t0 := time.Now()
	if err = protect(func() (err error) { p, err = w(t); return err }); err != nil {
		return s, p, err
	}
	s.setup = time.Since(t0).Seconds()

	runtime.GC()
	rt0 := readRuntime()
	hw := startWatermark()
	if prof != nil {
		if err := pprof.StartCPUProfile(prof); err != nil {
			hw.stop()
			return s, p, err
		}
	}
	t1 := time.Now()
	err = protect(func() (err error) { s.out, err = p.run(); return err })
	s.wall = time.Since(t1).Seconds()
	if prof != nil {
		pprof.StopCPUProfile()
	}
	s.peak = float64(hw.stop()) / mib
	s.rt = readRuntime().minus(rt0)
	s.alloc = float64(s.rt.allocBytes) / mib
	return s, p, err
}

const mib = 1 << 20

// protect runs f, reporting a panic in it as an error.
func protect(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	return f()
}

// measure makes measured calls for the given time, at least minReps of
// them, and reports the median of each end-to-end metric.
func measure(w workload, budget time.Duration, stderr io.Writer) result {
	var samples []sample
	var setups []float64
	res := result{Correct: true}
	fp := ""
	start := time.Now()
	for {
		// Stop once another call of average length would overrun the budget.
		if el := time.Since(start); res.Attempted >= minReps && el+el/time.Duration(res.Attempted) > budget {
			break
		}
		res.Attempted++
		s, _, err := once(w, nil, nil)
		if err == nil && fp != "" && s.out.fingerprint != fp {
			err = fmt.Errorf("fingerprint %s differs from the first call's %s", s.out.fingerprint, fp)
		}
		if err != nil {
			res.Failed++
			res.Correct = false
			fmt.Fprintf(stderr, "perfbench: call %d: %v\n", res.Attempted, err)
			continue
		}
		fp = s.out.fingerprint
		samples = append(samples, s)
		setups = append(setups, s.setup)
		fmt.Fprintf(stderr, "perfbench: call %d: setup %.4f s, wall %.4f s, peak heap %.1f MiB\n", res.Attempted, s.setup, s.wall, s.peak)
		t0 := time.Now()
		for n := 0; n < maxSetupsPerCall && (n < setupsPerCall || time.Since(t0) < setupSlice); n++ {
			d, err := setupOnce(w)
			if err != nil {
				res.Attempted++
				res.Failed++
				res.Correct = false
				fmt.Fprintf(stderr, "perfbench: set-up: %v\n", err)
				break
			}
			setups = append(setups, d)
		}
	}
	med := func(f func(sample) float64) float64 {
		v := make([]float64, len(samples))
		for i, s := range samples {
			v[i] = f(s)
		}
		return median(v)
	}
	res.Metrics = fill(endToEnd, map[string]float64{
		"setup_s":         median(setups),
		"wall_s":          med(func(s sample) float64 { return s.wall }),
		"visits_per_s":    med(func(s sample) float64 { return float64(s.out.visits) / s.wall }),
		"peak_heap_mib":   med(func(s sample) float64 { return s.peak }),
		"alloc_mib":       med(func(s sample) float64 { return s.alloc }),
		"success_rate":    med(func(s sample) float64 { return s.out.success }),
		"mean_delay_h":    med(func(s sample) float64 { return s.out.delayH }),
		"forwarding_cost": med(func(s sample) float64 { return s.out.fwdCost }),
	})
	return res
}

// setupOnce builds the inputs of one call without making it and returns
// the host time the build took.
func setupOnce(w workload) (float64, error) {
	runtime.GC()
	t0 := time.Now()
	if err := protect(func() error { _, err := w(nil); return err }); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

// traceRun makes one untraced call as the reference, then the same call
// with every probe on and the CPU profiler running, then the workload's
// traced-only extras. It reports the per-layer metrics and prints the
// CPU share table.
func traceRun(w workload, stdout, stderr io.Writer) result {
	res := result{Correct: true}
	fail := func(what string, err error) {
		res.Failed++
		res.Correct = false
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", what, err)
	}
	res.Attempted++
	ref, _, err := once(w, nil, nil)
	if err != nil {
		fail("untraced call", err)
	}
	t := &tracer{timed: true}
	var prof bytes.Buffer
	res.Attempted++
	s, p, err := once(w, t, &prof)
	switch {
	case err != nil:
		fail("traced call", err)
	case s.out.fingerprint != ref.out.fingerprint:
		fail("traced call", fmt.Errorf("fingerprint %s differs from the untraced call's %s", s.out.fingerprint, ref.out.fingerprint))
	}
	if p.extra != nil {
		res.Attempted++
		if err := protect(p.extra); err != nil {
			fail("traced extras", err)
		}
	}

	m := map[string]float64{}
	for k, v := range t.vals {
		m[k] = v
	}
	if ref.wall > 0 {
		m["trace_overhead"] = s.wall/ref.wall - 1
	}
	m["runtime.gc_cycles"] = float64(s.rt.gcCycles)
	m["runtime.gc_pause_ms"] = float64(s.rt.pauseNS) / 1e6
	if s.rt.cpu > 0 {
		m["runtime.gc_cpu_frac"] = s.rt.gcCPU / s.rt.cpu
	}
	routerMetrics(t, m)

	samples, err := cpuSamples(prof.Bytes())
	if err != nil {
		res.Attempted++
		fail("cpu profile", err)
	}
	split := layerSplit(samples)
	var total float64
	for l, v := range split {
		total += v
		if slices.Contains(cpuLayers, l) {
			m["cpu."+l+"_s"] = v
		} else {
			m["cpu.other_s"] += v
		}
	}
	m["cpu.total_s"] = total
	printShares(stdout, split, total)
	var zero []string
	for _, d := range perLayer {
		if m[d.name] == 0 {
			zero = append(zero, d.name)
		}
	}
	// A zero is a layer this workload does not run, or for cpu.* one that
	// took no profile sample (README.md, "Reading a traced run"); no
	// measurement is ever skipped.
	fmt.Fprintf(stdout, "zero %s\n", strings.Join(zero, " "))
	res.Metrics = fill(perLayer, m)
	return res
}

// cpuSamples writes a CPU profile next to the benchmark's binary (under
// .bench_build when run through run.sh), reads its samples back and
// removes the file.
func cpuSamples(prof []byte) ([]cpuSample, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(filepath.Dir(exe), "cpu-*.pprof")
	if err != nil {
		return nil, err
	}
	defer os.Remove(f.Name())
	_, err = f.Write(prof)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return readCPUProfile(f.Name())
}

// routerMetrics derives the router-side layer metrics from the probes:
// DTN-FLOW's callbacks (core), its routing tables and predictors after
// each measured run, the baselines' callback time, and warm-state forks.
func routerMetrics(t *tracer, m map[string]float64) {
	var contact, generate []int64
	var accSum float64
	var accN int
	for _, p := range t.routers {
		m["sim.inits"] += float64(p.calls[cbInit])
		if p.cloned {
			m["fork.clones"]++
			m["fork.clone_s"] += seconds(p.cloneNS)
		}
		cr, ok := p.r.(*core.Router)
		if !ok {
			m["baselines."+p.Name()+".callback_s"] += seconds(p.callbackNS())
			continue
		}
		m["core.contact_s"] += seconds(p.ns[cbContact])
		m["core.contact_calls"] += float64(p.calls[cbContact])
		m["core.generate_s"] += seconds(p.ns[cbGenerate])
		m["core.generate_calls"] += float64(p.calls[cbGenerate])
		m["core.depart_s"] += seconds(p.ns[cbDepart])
		m["core.depart_calls"] += float64(p.calls[cbDepart])
		m["core.unit_s"] += seconds(p.ns[cbUnit])
		m["core.unit_calls"] += float64(p.calls[cbUnit])
		contact = append(contact, p.contactNS...)
		generate = append(generate, p.generateNS...)
		if p.ctx == nil || p.ctx.Metrics.Generated == 0 {
			continue // not a measured run: a warmup engine a sweep forks from
		}
		gen, reach := tableState(cr, p.ctx.NumLandmarks())
		m["routing.table_gen"] += float64(gen)
		m["routing.reachable"] += float64(reach)
		for n := range p.ctx.Nodes {
			accSum += cr.Accuracy(n)
			accN++
		}
	}
	if accN > 0 {
		m["predict.accuracy"] = accSum / float64(accN)
	}
	m["core.contact_p50_us"] = percentile(contact, 0.50) / 1e3
	m["core.contact_p99_us"] = percentile(contact, 0.99) / 1e3
	m["core.generate_p99_us"] = percentile(generate, 0.99) / 1e3
}

// tableState reads every landmark's routing table after a run: the sum
// of table generations (after Len's refreshing read) and of reachable
// destinations.
func tableState(r *core.Router, landmarks int) (gen uint64, reachable int) {
	for lm := 0; lm < landmarks; lm++ {
		tb := r.Table(lm)
		reachable += tb.Len()
		gen += tb.Gen()
	}
	return gen, reachable
}

// printShares prints the CPU share table of a traced run, largest first.
func printShares(w io.Writer, split map[string]float64, total float64) {
	layers := make([]string, 0, len(split))
	for l := range split {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool {
		if split[layers[i]] != split[layers[j]] {
			return split[layers[i]] > split[layers[j]]
		}
		return layers[i] < layers[j]
	})
	fmt.Fprintf(w, "cpu-share %-12s %9s %7s\n", "layer", "cpu_s", "share")
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = 100 * split[l] / total
		}
		fmt.Fprintf(w, "cpu-share %-12s %9.3f %6.1f%%\n", l, split[l], share)
	}
}

// fill returns every metric of defs, each from vals (0 when the workload
// has no such layer; README.md lists where that happens and why).
func fill(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the nearest-rank q-quantile of durations in ns.
func percentile(d []int64, q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := slices.Clone(d)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(i, 0)])
}

// runtimeDelta is what the Go runtime did during one call.
type runtimeDelta struct {
	allocBytes uint64
	gcCycles   uint64
	pauseNS    uint64
	gcCPU, cpu float64 // seconds, from runtime/metrics
}

func (a runtimeDelta) minus(b runtimeDelta) runtimeDelta {
	return runtimeDelta{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.pauseNS - b.pauseNS, a.gcCPU - b.gcCPU, a.cpu - b.cpu}
}

func readRuntime() runtimeDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	d := runtimeDelta{allocBytes: ms.TotalAlloc, gcCycles: uint64(ms.NumGC), pauseNS: ms.PauseTotalNs}
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		d.gcCPU, d.cpu = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return d
}

// watermark samples the live heap (runtime/metrics, which does not stop
// the world) every few milliseconds and keeps the highest reading.
type watermark struct {
	done chan struct{}
	out  chan uint64
}

func startWatermark() *watermark {
	w := &watermark{done: make(chan struct{}), out: make(chan uint64)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		read := func() {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				peak = max(peak, s[0].Value.Uint64())
			}
		}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		read()
		for {
			select {
			case <-tick.C:
				read()
			case <-w.done:
				read()
				w.out <- peak
				return
			}
		}
	}()
	return w
}

// stop ends the sampler, waits for it, and returns the peak in bytes.
func (w *watermark) stop() uint64 {
	close(w.done)
	return <-w.out
}
