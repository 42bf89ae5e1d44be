package main

import (
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file holds the behaviour-neutral wrappers the traced run times the
// layers through. Each forwards every call unchanged, so a wrapped run
// produces the same summary and the same engine statistics as a bare one
// (wrap_test.go checks both).

// Router callback kinds a routerProbe times.
const (
	cbInit = iota
	cbContact
	cbDepart
	cbGenerate
	cbUnit
	numCallbacks
)

// routerProbe wraps a sim.Router. It registers the run's metrics with the
// tracer, which is how the benchmark checks packet conservation on runs
// whose results come back only as averages (experiment.Sweep), and, when
// timed, records the host time of every callback.
//
// A probe serves one run on one goroutine, like the router it wraps, so
// its fields need no locking; the tracer reads them after the run returns.
type routerProbe struct {
	r sim.Router
	t *tracer
	// ctx is the run's context, kept only when timed: it holds the whole
	// engine, and a sweep's warm-up snapshot keeps its probe alive.
	ctx   *sim.Context
	calls [numCallbacks]int
	ns    [numCallbacks]int64
	// contactNS and generateNS hold each call's duration, for percentiles.
	contactNS, generateNS []int64
	// cloneNS is the host time of the CloneRouter call that made this
	// probe's router; zero for a router built by a factory.
	cloneNS int64
	cloned  bool
}

// cloningProbe is a routerProbe over a router that supports warm-state
// forking. It is a separate type so that a probe claims sim.Cloner exactly
// when the wrapped router does: sim.Snapshot decides whether a sweep forks
// by that type assertion.
type cloningProbe struct{ *routerProbe }

// CloneRouter clones the wrapped router and wraps the clone in a probe of
// its own, so the forked run is traced like a fresh one.
func (c cloningProbe) CloneRouter(ctx *sim.Context) sim.Router {
	t0 := time.Now()
	inner := c.r.(sim.Cloner).CloneRouter(ctx)
	d := time.Since(t0)
	p := c.t.probe(inner)
	p.cloned, p.cloneNS = true, int64(d)
	c.t.started(p, ctx)
	return p.wrapper()
}

// wrapper returns the probe as a router that implements sim.Cloner
// exactly when the wrapped router does.
func (p *routerProbe) wrapper() sim.Router {
	if _, ok := p.r.(sim.Cloner); ok {
		return cloningProbe{p}
	}
	return p
}

func (p *routerProbe) Name() string { return p.r.Name() }

func (p *routerProbe) Init(ctx *sim.Context) {
	p.t.started(p, ctx)
	if !p.t.timed {
		p.r.Init(ctx)
		return
	}
	t0 := time.Now()
	p.r.Init(ctx)
	p.record(cbInit, t0)
}

func (p *routerProbe) OnContact(ctx *sim.Context, c *sim.Contact) {
	if !p.t.timed {
		p.r.OnContact(ctx, c)
		return
	}
	t0 := time.Now()
	p.r.OnContact(ctx, c)
	p.contactNS = append(p.contactNS, p.record(cbContact, t0))
}

func (p *routerProbe) OnDepart(ctx *sim.Context, n *sim.Node, landmark int) {
	if !p.t.timed {
		p.r.OnDepart(ctx, n, landmark)
		return
	}
	t0 := time.Now()
	p.r.OnDepart(ctx, n, landmark)
	p.record(cbDepart, t0)
}

func (p *routerProbe) OnGenerate(ctx *sim.Context, pk *sim.Packet) {
	if !p.t.timed {
		p.r.OnGenerate(ctx, pk)
		return
	}
	t0 := time.Now()
	p.r.OnGenerate(ctx, pk)
	p.generateNS = append(p.generateNS, p.record(cbGenerate, t0))
}

func (p *routerProbe) OnTimeUnit(ctx *sim.Context, seq int) {
	if !p.t.timed {
		p.r.OnTimeUnit(ctx, seq)
		return
	}
	t0 := time.Now()
	p.r.OnTimeUnit(ctx, seq)
	p.record(cbUnit, t0)
}

func (p *routerProbe) record(kind int, t0 time.Time) int64 {
	d := int64(time.Since(t0))
	p.calls[kind]++
	p.ns[kind] += d
	return d
}

// callbackNS is the host time spent inside the wrapped router.
func (p *routerProbe) callbackNS() int64 {
	var s int64
	for _, d := range p.ns {
		s += d
	}
	return s
}

// sourceProbe wraps a trace.Source and times its Next calls. The source
// is consumed on the sharded engine's prefetch goroutine; the tracer
// reads the totals after the run has returned.
type sourceProbe struct {
	src    trace.Source
	ns     int64
	calls  int
	visits int
}

// spanningProbe is a sourceProbe over a source that knows its span. It
// forwards trace.Spanner so that sim.NewSharded does not fall back to a
// ScanSpan drain the bare source would not have cost.
type spanningProbe struct {
	*sourceProbe
	sp trace.Spanner
}

func (s spanningProbe) Span() (start, end trace.Time) { return s.sp.Span() }

func (s *sourceProbe) Info() trace.SourceInfo { return s.src.Info() }

func (s *sourceProbe) Next() ([]trace.Visit, bool) {
	t0 := time.Now()
	vs, ok := s.src.Next()
	s.ns += int64(time.Since(t0))
	s.calls++
	s.visits += len(vs)
	return vs, ok
}

// runRecord is what a tracer keeps of every run a router probe served:
// the method, the run's metrics collector and whether the run was forked
// from a warm-up snapshot.
type runRecord struct {
	method string
	m      *metrics.Collector
	forked bool
}

// tracer owns the probes of one traced (or, untimed, one checked) call.
// Probes are created from several goroutines when a sweep forks, so the
// registries are guarded; the probes themselves are not shared.
type tracer struct {
	timed bool

	mu      sync.Mutex
	runs    []runRecord
	routers []*routerProbe            // timed only
	sources map[string][]*sourceProbe // by layer name

	// vals holds the per-layer metrics workloads set directly; only the
	// benchmark's main goroutine writes it.
	vals map[string]float64
}

// router wraps r in a probe registered with the tracer. A nil tracer
// returns r itself, which is how untraced runs stay unwrapped.
func (t *tracer) router(r sim.Router) sim.Router {
	if t == nil {
		return r
	}
	return t.probe(r).wrapper()
}

// probe makes a probe over r. A timed tracer registers it, to read its
// times after the call; an untimed one leaves it to the engine that runs
// it, so that it is freed with that engine.
func (t *tracer) probe(r sim.Router) *routerProbe {
	p := &routerProbe{r: r, t: t}
	if t.timed {
		t.mu.Lock()
		t.routers = append(t.routers, p)
		t.mu.Unlock()
	}
	return p
}

// started records the run a probe serves, from its Init or, for a forked
// run, from the CloneRouter call that made it.
func (t *tracer) started(p *routerProbe, ctx *sim.Context) {
	t.mu.Lock()
	t.runs = append(t.runs, runRecord{p.Name(), ctx.Metrics, p.cloned})
	t.mu.Unlock()
	if t.timed {
		p.ctx = ctx
	}
}

// source lifts a source factory to one whose sources are timed under the
// given layer name. A nil tracer returns open itself.
func (t *tracer) source(layer string, open func() trace.Source) func() trace.Source {
	if t == nil {
		return open
	}
	return func() trace.Source {
		src := open()
		p := &sourceProbe{src: src}
		t.mu.Lock()
		if t.sources == nil {
			t.sources = map[string][]*sourceProbe{}
		}
		t.sources[layer] = append(t.sources[layer], p)
		t.mu.Unlock()
		if sp, ok := src.(trace.Spanner); ok {
			return spanningProbe{p, sp}
		}
		return p
	}
}

// flow is the work a layer's sources did: Next time, calls and visits.
type flow struct {
	ns            int64
	calls, visits int
}

func (f flow) minus(g flow) flow { return flow{f.ns - g.ns, f.calls - g.calls, f.visits - g.visits} }

// flow sums the work of a layer's sources so far.
func (t *tracer) flow(layer string) flow {
	var f flow
	for _, p := range t.sources[layer] {
		f.ns += p.ns
		f.calls += p.calls
		f.visits += p.visits
	}
	return f
}

// callbackNS is the host time spent inside every probed router.
func (t *tracer) callbackNS() int64 {
	var s int64
	for _, p := range t.routers {
		s += p.callbackNS()
	}
	return s
}

// set records a per-layer metric the workload measured itself. It is a
// no-op on a nil tracer, so workloads call it unconditionally.
func (t *tracer) set(name string, v float64) {
	if t == nil {
		return
	}
	if t.vals == nil {
		t.vals = map[string]float64{}
	}
	t.vals[name] = v
}
