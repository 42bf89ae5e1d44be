package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/disrupt"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/oracle"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/trace"
)

// The four workloads. README.md records why each was chosen and which
// layers it stresses.
var workloadNames = []string{"dart-mobility", "dart-storm", "oracle-dart", "paper-sweep"}

// outcome is what one measured call produced: a fingerprint of every
// simulated statistic (a speed-only change must leave it unchanged) and
// the simulated end-to-end metrics.
type outcome struct {
	fingerprint string
	visits      int // trace visits the call consumed
	success     float64
	delayH      float64
	fwdCost     float64
}

// prepared is one measured call whose inputs are built.
type prepared struct {
	run func() (outcome, error)
	// extra makes the traced-only measurements that have no untraced
	// twin; nil when the workload has none.
	extra func() error
}

// workload builds the inputs of one measured call; the benchmark times
// that build as setup_s. A nil tracer builds the bare inputs; a non-nil
// one wraps every layer the workload reaches in probes.
type workload func(t *tracer) (prepared, error)

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "dart-mobility":
		return scaleWorkload(experiment.ScaleSpec{Scenario: "DART", Mult: 4, Rate: 500, Seed: seed}, "")
	case "dart-storm":
		return scaleWorkload(experiment.ScaleSpec{Scenario: "DART", Mult: 1, Rate: 500, Seed: seed}, "storm")
	case "oracle-dart":
		return oracleWorkload(experiment.ScaleSpec{Scenario: "DART", Mult: 1, Seed: seed}), nil
	case "paper-sweep":
		return sweepWorkload(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// conserved checks that every generated packet was delivered or dropped.
func conserved(c *metrics.Collector) error {
	dropped := 0
	for _, n := range c.Dropped {
		dropped += n
	}
	if c.Generated != c.Delivered+dropped {
		return fmt.Errorf("conservation: generated %d != delivered %d + dropped %d", c.Generated, c.Delivered, dropped)
	}
	return nil
}

// simulated returns the simulated end-to-end metrics of one summary.
func simulated(s metrics.Summary) (success, delayH, fwdCost float64) {
	if s.Generated > 0 {
		fwdCost = float64(s.Forwarding) / float64(s.Generated)
	}
	return s.SuccessRate, s.AvgDelay / float64(trace.Hour), fwdCost
}

// scaleWorkload runs DTN-FLOW over a streamed scaled scenario on the
// sharded engine, optionally under a disruption preset. Setup is
// sim.NewSharded: the workload schedule plus the span scan of the stream.
func scaleWorkload(sp experiment.ScaleSpec, preset string) (workload, error) {
	sp.Stream = synth.StreamConfig{Workers: nproc}
	if preset != "" {
		nodes, lms, err := sp.Dims()
		if err != nil {
			return nil, err
		}
		start, end, err := sp.Span()
		if err != nil {
			return nil, err
		}
		spec, err := disrupt.Preset(preset, nodes, lms, start, end)
		if err != nil {
			return nil, err
		}
		sp.Disrupt = &spec
	}
	build := func(t *tracer, r sim.Router) (*sim.Sharded, error) {
		cfg, err := sp.Config()
		if err != nil {
			return nil, err
		}
		wl, err := sp.Workload()
		if err != nil {
			return nil, err
		}
		// The stream is composed here, as ScaleSpec.Open does, so that a
		// traced call times the generator and the disruption layer apart.
		bare := sp
		bare.Disrupt = nil
		open, err := bare.Open()
		if err != nil {
			return nil, err
		}
		open = t.source("synth", open)
		if sp.Disrupt != nil {
			open = t.source("disrupt", disrupt.Wrap(open, sp.Disrupt))
		}
		return sim.NewSharded(open, t.router(r), wl, cfg, sim.ShardConfig{Workers: nproc})
	}
	return func(t *tracer) (prepared, error) {
		s, err := build(t, experiment.NewRouter("DTN-FLOW"))
		if err != nil {
			return prepared{}, err
		}
		p := prepared{run: func() (outcome, error) {
			var synth0, disrupt0 flow
			if t != nil {
				// Everything the sources did so far was the span scan.
				synth0, disrupt0 = t.flow("synth"), t.flow("disrupt")
				t.set("synth.scan_s", seconds(synth0.ns))
			}
			t0 := time.Now()
			res := s.Run()
			runNS := int64(time.Since(t0))
			st := s.Stats()
			if err := conserved(res.Raw); err != nil {
				return outcome{}, err
			}
			if t != nil {
				gen := t.flow("synth").minus(synth0)
				t.set("synth.next_s", seconds(gen.ns))
				t.set("synth.next_calls", float64(gen.calls))
				t.set("synth.visits", float64(gen.visits))
				if sp.Disrupt != nil {
					// Self time: the disrupted source less the stream it reads.
					t.set("disrupt.next_s", seconds(t.flow("disrupt").minus(disrupt0).ns-gen.ns))
				}
				t.set("sim.run_s", seconds(runNS))
				t.set("sim.self_s", seconds(runNS-t.callbackNS()))
				t.set("sim.epochs", float64(st.Epochs))
				t.set("sim.events", float64(st.Events))
			}
			o := outcome{
				fingerprint: fmt.Sprintf("%s visits=%d events=%d epochs=%d",
					experiment.SummaryFingerprint(res.Summary), st.Visits, st.Events, st.Epochs),
				visits: st.Visits,
			}
			o.success, o.delayH, o.fwdCost = simulated(res.Summary)
			return o, nil
		}}
		if t != nil {
			p.extra = func() error {
				// The engine floor: the same stream and workload through
				// a router that does nothing.
				s, err := build(nil, noopRouter{})
				if err != nil {
					return err
				}
				t0 := time.Now()
				res := s.Run()
				t.set("sim.noop_run_s", time.Since(t0).Seconds())
				return conserved(res.Raw)
			}
		}
		return p, nil
	}, nil
}

// noopRouter moves no packet: every packet waits at its source station
// until it expires or the run ends.
type noopRouter struct{}

func (noopRouter) Name() string                          { return "noop" }
func (noopRouter) Init(*sim.Context)                     {}
func (noopRouter) OnContact(*sim.Context, *sim.Contact)  {}
func (noopRouter) OnDepart(*sim.Context, *sim.Node, int) {}
func (noopRouter) OnGenerate(*sim.Context, *sim.Packet)  {}
func (noopRouter) OnTimeUnit(*sim.Context, int)          {}

// oracleWorkload is the OracleScale path: materialize the streamed trace,
// build the contact graph and solve the relaxed bound for the workload's
// packets. Setup is the packet schedule, which needs the stream's span.
func oracleWorkload(sp experiment.ScaleSpec) workload {
	sp.Stream = synth.StreamConfig{Workers: nproc}
	return func(t *tracer) (prepared, error) {
		open, err := sp.Open()
		if err != nil {
			return prepared{}, err
		}
		open = t.source("synth", open)
		cfg, err := sp.Config()
		if err != nil {
			return prepared{}, err
		}
		wl, err := sp.Workload()
		if err != nil {
			return prepared{}, err
		}
		src := open()
		lms := src.Info().NumLandmarks
		start, end, err := trace.ScanSpan(src)
		if err != nil {
			return prepared{}, err
		}
		// The engine's packet schedule: its RNG's first draw (see
		// experiment.OracleScale).
		pkts := oracle.FromSim(wl.Schedule(rand.New(rand.NewSource(cfg.Seed)), start+cfg.Warmup, end, lms))
		ocfg := oracle.ConfigFrom(cfg)
		ocfg.Workers = nproc
		ocfg.SkipCommitted = true

		var g *oracle.Graph
		var relaxed *oracle.Result
		p := prepared{run: func() (outcome, error) {
			var synth0 flow
			if t != nil {
				synth0 = t.flow("synth")
				t.set("synth.scan_s", seconds(synth0.ns))
			}
			t0 := time.Now()
			tr, err := trace.Materialize(open())
			if err != nil {
				return outcome{}, err
			}
			t1 := time.Now()
			g = oracle.Build(tr, ocfg, nproc)
			t2 := time.Now()
			relaxed = oracle.Solve(g, ocfg, pkts)
			t3 := time.Now()

			if s, e := tr.Span(); s != start || e != end {
				return outcome{}, fmt.Errorf("span scan [%d,%d) != materialized span [%d,%d)", start, end, s, e)
			}
			if relaxed.Deliverable > len(pkts) || len(relaxed.Packets) != len(pkts) {
				return outcome{}, fmt.Errorf("oracle: %d deliverable of %d packets (%d results)",
					relaxed.Deliverable, len(pkts), len(relaxed.Packets))
			}
			hops := 0
			for i := range relaxed.Packets {
				if path := relaxed.Path(&relaxed.Packets[i]); len(path) > 1 {
					hops += len(path) - 1
				}
			}
			if t != nil {
				gen := t.flow("synth").minus(synth0)
				t.set("synth.next_s", seconds(gen.ns))
				t.set("synth.next_calls", float64(gen.calls))
				t.set("synth.visits", float64(gen.visits))
				t.set("oracle.materialize_s", t1.Sub(t0).Seconds())
				t.set("oracle.build_s", t2.Sub(t1).Seconds())
				t.set("oracle.relaxed_s", t3.Sub(t2).Seconds())
				t.set("oracle.edges", float64(g.NumEdges()))
				t.set("oracle.packets", float64(len(pkts)))
			}
			fp, err := experiment.FingerprintJSON(struct {
				Graph       uint64
				Edges       int
				Packets     int
				Deliverable int
				MeanDelay   float64
				Hops        int
			}{g.Fingerprint(), g.NumEdges(), len(pkts), relaxed.Deliverable, relaxed.MeanDelay, hops})
			if err != nil {
				return outcome{}, err
			}
			o := outcome{fingerprint: fp, visits: len(tr.Visits), delayH: relaxed.MeanDelay / float64(trace.Hour)}
			if len(pkts) > 0 {
				o.success = float64(relaxed.Deliverable) / float64(len(pkts))
				o.fwdCost = float64(hops) / float64(len(pkts))
			}
			return o, nil
		}}
		if t != nil {
			p.extra = func() error {
				// The capacity-respecting committed schedule, which no
				// workload pays for yet: a full Solve less the relaxed pass.
				full := ocfg
				full.SkipCommitted = false
				t0 := time.Now()
				res := oracle.Solve(g, full, pkts)
				d := time.Since(t0).Seconds()
				t.set("oracle.commit_s", d-t.vals["oracle.relaxed_s"])
				if res.Deliverable != relaxed.Deliverable || res.CommittedDelivered > res.Deliverable {
					return fmt.Errorf("oracle: committed %d / relaxed %d, want relaxed %d unchanged and committed <= relaxed",
						res.CommittedDelivered, res.Deliverable, relaxed.Deliverable)
				}
				return nil
			}
		}
		return p, nil
	}
}

// Paper sweep: all six methods × four packet rates × three seeds on the
// Quick DART scenario, through experiment.Sweep (classic engine,
// warm-state forking, the sweep scheduler).
var sweepRates = []float64{50, 200, 350, 500}

const sweepSeeds = 3

// quickDART is the trace configuration of experiment.DARTScenario(Quick).
// The sweep builds its trace afresh in every setup so that every
// repetition pays the scenario build; sweepWorkload checks the copy
// against the memoized scenario once.
func quickDART() synth.DARTConfig {
	cfg := synth.DefaultDART()
	cfg.Nodes = 120
	cfg.Landmarks = 60
	cfg.Days = 56
	cfg.Communities = 12
	return cfg
}

func sweepWorkload(seed int64) (workload, error) {
	ref := experiment.DARTScenario(experiment.Quick)
	if tr := synth.DART(quickDART()); tr.NumNodes != ref.Trace.NumNodes ||
		tr.NumLandmarks != ref.Trace.NumLandmarks || !slices.Equal(tr.Visits, ref.Trace.Visits) {
		return nil, fmt.Errorf("paper-sweep: the Quick DART trace configuration no longer matches experiment.DARTScenario(Quick)")
	}
	return func(t *tracer) (prepared, error) {
		t0 := time.Now()
		sc := *ref
		sc.Trace = synth.DART(quickDART())
		t.set("experiment.scenario_s", time.Since(t0).Seconds())
		return prepared{run: func() (outcome, error) {
			// Sweep returns only seed averages, so every run's counts are
			// checked on the collector its router probe registered;
			// untraced calls use an untimed probe for that.
			ct := t
			if ct == nil {
				ct = &tracer{}
			}
			opt := experiment.Options{Scale: experiment.Quick, Seeds: sweepSeeds, Workers: nproc}
			t0 := time.Now()
			points := experiment.Sweep(experiment.MethodNames, sweepRates, opt,
				func(method string, x float64, s int64) experiment.Run {
					return experiment.Run{
						Scenario: &sc,
						Router:   func() sim.Router { return ct.router(experiment.NewRouter(method)) },
						Rate:     x,
						Seed:     seed*sweepSeeds + s,
					}
				})
			t.set("experiment.sweep_s", time.Since(t0).Seconds())

			// A warm-up engine replays the visits that arrive before the
			// measurement window, a forked run those that arrive in it, and
			// a fresh run all of them.
			start, _ := sc.Trace.Span()
			from := start + sc.Config(seed).Warmup
			early := 0
			for _, v := range sc.Trace.Visits {
				if v.Start < from {
					early++
				}
			}
			runs, visits := 0, 0
			var fwd, gen float64
			for _, r := range ct.runs {
				if err := conserved(r.m); err != nil {
					return outcome{}, fmt.Errorf("paper-sweep %s: %w", r.method, err)
				}
				switch {
				case r.m.Generated == 0:
					visits += early // a warm-up engine, which a sweep forks from
					continue
				case r.forked:
					visits += len(sc.Trace.Visits) - early
				default:
					visits += len(sc.Trace.Visits)
				}
				runs++
				if r.method == experiment.MethodNames[0] {
					fwd += float64(r.m.ForwardingOps)
					gen += float64(r.m.Generated)
				}
			}
			if want := len(experiment.MethodNames) * len(sweepRates) * sweepSeeds; runs != want {
				return outcome{}, fmt.Errorf("paper-sweep: %d measured runs, want %d", runs, want)
			}
			fp, err := experiment.FingerprintJSON(points)
			if err != nil {
				return outcome{}, err
			}
			o := outcome{fingerprint: fp, visits: visits}
			for _, pt := range points {
				dtn := pt.Results[0]
				o.success += dtn.Success / float64(len(points))
				o.delayH += dtn.Delay / float64(trace.Hour) / float64(len(points))
			}
			if gen > 0 {
				o.fwdCost = fwd / gen
			}
			return o, nil
		}}, nil
	}, nil
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }
