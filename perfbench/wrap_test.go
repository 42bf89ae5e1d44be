package main

import (
	"testing"

	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/trace"
)

// tinyDART is the trace configuration of experiment.DARTScenario(Tiny).
func tinyDART() synth.DARTConfig {
	cfg := synth.DefaultDART()
	cfg.Nodes, cfg.Landmarks, cfg.Days, cfg.Communities = 48, 24, 28, 6
	return cfg
}

func TestRouterProbeIsNeutral(t *testing.T) {
	sc := experiment.DARTScenario(experiment.Tiny)
	for _, m := range experiment.MethodNames {
		run := experiment.Run{Scenario: sc, Rate: 200, Seed: 3}
		run.Router = func() sim.Router { return experiment.NewRouter(m) }
		bare := run.Execute()
		tr := &tracer{timed: true}
		run.Router = func() sim.Router { return tr.router(experiment.NewRouter(m)) }
		wrapped := run.Execute()
		if a, b := experiment.SummaryFingerprint(bare), experiment.SummaryFingerprint(wrapped); a != b {
			t.Errorf("%s: wrapped fingerprint %s, bare %s", m, b, a)
		}
		if p := tr.routers[0]; p.calls[cbInit] != 1 || p.calls[cbContact] == 0 || p.calls[cbGenerate] == 0 {
			t.Errorf("%s: probe saw init=%d contact=%d generate=%d calls", m, p.calls[cbInit], p.calls[cbContact], p.calls[cbGenerate])
		}
	}
}

func TestRouterProbeKeepsForking(t *testing.T) {
	sc := experiment.DARTScenario(experiment.Tiny)
	opt := experiment.Options{Scale: experiment.Tiny, Seeds: 2, Workers: 2}
	rates := []float64{100, 200}
	sweep := func(wrap func(sim.Router) sim.Router) string {
		pts := experiment.Sweep(experiment.MethodNames, rates, opt, func(m string, x float64, s int64) experiment.Run {
			return experiment.Run{Scenario: sc, Router: func() sim.Router { return wrap(experiment.NewRouter(m)) }, Rate: x, Seed: s}
		})
		fp, err := experiment.FingerprintJSON(pts)
		if err != nil {
			t.Fatal(err)
		}
		return fp
	}
	bare := sweep(func(r sim.Router) sim.Router { return r })
	tr := &tracer{timed: true}
	if wrapped := sweep(tr.router); wrapped != bare {
		t.Errorf("wrapped sweep fingerprint %s, bare %s", wrapped, bare)
	}
	clones := 0
	for _, p := range tr.routers {
		if p.cloned {
			clones++
			if p.ctx == nil || p.ctx.Metrics.Generated == 0 {
				t.Errorf("forked %s run has no measured context", p.Name())
			}
		}
	}
	if want := len(experiment.MethodNames) * len(rates) * opt.Seeds; clones != want {
		t.Errorf("%d forked runs, want %d", clones, want)
	}

	// An untimed tracer, as untraced calls use, records every run's
	// metrics but keeps no probe, so no engine outlives the sweep.
	ut := &tracer{}
	if wrapped := sweep(ut.router); wrapped != bare {
		t.Errorf("untimed wrapped sweep fingerprint %s, bare %s", wrapped, bare)
	}
	if len(ut.routers) != 0 {
		t.Errorf("untimed tracer kept %d probes", len(ut.routers))
	}
	forked := 0
	for _, r := range ut.runs {
		if r.forked {
			forked++
		}
	}
	if len(ut.runs) != len(tr.runs) || forked != clones {
		t.Errorf("untimed tracer recorded %d runs (%d forked), timed %d (%d forked)", len(ut.runs), forked, len(tr.runs), clones)
	}
}

func TestSourceProbeForwardsSpan(t *testing.T) {
	tr := &tracer{timed: true}
	sc := experiment.DARTScenario(experiment.Tiny)
	if _, ok := tr.source("x", func() trace.Source { return trace.NewSliceSource(sc.Trace, 0) })().(trace.Spanner); !ok {
		t.Error("probe over a Spanner does not implement trace.Spanner")
	}
	if _, ok := tr.source("x", func() trace.Source { return synth.DARTSource(tinyDART(), synth.StreamConfig{}) })().(trace.Spanner); ok {
		t.Error("probe over a plain source claims trace.Spanner")
	}
}

// TestProbedShardedRunIsNeutral runs the sharded engine over a spanning
// and a plain source, each bare and fully probed, and wants the same
// summary and the same engine statistics.
func TestProbedShardedRunIsNeutral(t *testing.T) {
	sc := experiment.DARTScenario(experiment.Tiny)
	opens := map[string]func() trace.Source{
		"slice":  func() trace.Source { return trace.NewSliceSource(sc.Trace, 1000) },
		"stream": func() trace.Source { return synth.DARTSource(tinyDART(), synth.StreamConfig{Workers: 2}) },
	}
	run := func(open func() trace.Source, tr *tracer) (metrics.Summary, *metrics.Collector, sim.ShardStats) {
		s, err := sim.NewSharded(tr.source("synth", open), tr.router(experiment.NewRouter("DTN-FLOW")),
			sc.Workload(200), sc.Config(5), sim.ShardConfig{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		res := s.Run()
		return res.Summary, res.Raw, s.Stats()
	}
	for name, open := range opens {
		bareSum, _, bareStats := run(open, nil)
		tr := &tracer{timed: true}
		sum, raw, stats := run(open, tr)
		if a, b := experiment.SummaryFingerprint(bareSum), experiment.SummaryFingerprint(sum); a != b {
			t.Errorf("%s: probed fingerprint %s, bare %s", name, b, a)
		}
		if stats != bareStats {
			t.Errorf("%s: probed stats %+v, bare %+v", name, stats, bareStats)
		}
		if err := conserved(raw); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if f := tr.flow("synth"); f.visits < stats.Visits || f.calls == 0 || f.ns <= 0 {
			t.Errorf("%s: source probes saw %+v for %d visits", name, f, stats.Visits)
		}
	}
}
