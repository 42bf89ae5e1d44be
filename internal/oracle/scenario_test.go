package oracle_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/experiment"
	"repro/internal/oracle"
)

// TestScanMatchesReferenceScenarios compares the connection scan with
// the reference search on the Tiny and Quick DART and DNET scenarios'
// default packet schedules, relaxed and committed. DNET's traces hold
// zero-duration transits, where only fates and arrival times must
// agree.
func TestScanMatchesReferenceScenarios(t *testing.T) {
	for _, scale := range []experiment.Scale{experiment.Tiny, experiment.Quick} {
		if testing.Short() && scale == experiment.Quick {
			continue
		}
		for _, sc := range []*experiment.Scenario{experiment.DARTScenario(scale), experiment.DNETScenario(scale)} {
			t.Run(fmt.Sprintf("%s/%s", sc.Name, scale), func(t *testing.T) {
				cfg := sc.Config(1)
				pkts := sc.OraclePackets(cfg, sc.Workload(sc.RateDef), sc.Trace)
				ocfg := oracle.ConfigFrom(cfg)
				g := oracle.Build(sc.Trace, ocfg, 0)
				zero := g.ZeroDuration()
				t.Logf("%d packets, %d edges, %d zero-duration", len(pkts), g.NumEdges(), zero)
				if err := oracle.DiffResults(oracle.Solve(g, ocfg, pkts), oracle.SolveReference(g, ocfg, pkts), zero == 0); err != nil {
					t.Fatalf("scan vs reference: %v", err)
				}
			})
		}
	}
}

// TestRegretMatchesReference: the regret join of a recorded Tiny DART
// run, whose optimal first hops and direct-hop arrivals come from the
// scan, must equal the join computed on the reference search.
func TestRegretMatchesReference(t *testing.T) {
	log, sc, ocfg := liveRegret(t, "DART", "DTN-FLOW")
	got := oracle.Regret(log, sc.Trace, ocfg)
	want := oracle.RegretReference(log, sc.Trace, ocfg)
	if got.Decisions == 0 {
		t.Fatal("no forwarding decisions replayed")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("regret diverged from the reference:\nscan:      %+v\nreference: %+v", got, want)
	}
}
