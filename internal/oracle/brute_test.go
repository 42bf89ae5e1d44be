package oracle

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/synth"
	"repro/internal/trace"
)

// Brute-force cross-check: on tiny scenarios (<= 3 landmarks) the
// connection scan must be exactly optimal. The reference
// enumerates every feasible forwarding schedule as a DFS over simple
// landmark paths in the time-expanded graph — for earliest arrival,
// revisiting a landmark can never help (returning later only shrinks
// the set of boardable edges), so simple paths cover the optimum — with
// no pruning beyond the revisit guard.

// bruteEAT enumerates all simple contact paths src -> dst boardable
// from t0 and returns the minimum arrival strictly before deadline.
func bruteEAT(tr *trace.Trace, src, dst int, t0, deadline trace.Time) (trace.Time, bool) {
	if src == dst {
		return t0, t0 < deadline
	}
	transits := tr.Transits()
	visited := make([]bool, tr.NumLandmarks)
	best := maxTime
	var dfs func(at int, t trace.Time)
	dfs = func(at int, t trace.Time) {
		if at == dst {
			if t < best {
				best = t
			}
			return
		}
		visited[at] = true
		for _, tx := range transits {
			if tx.From != at || visited[tx.To] || tx.Depart < t {
				continue
			}
			if tx.Arrive < deadline {
				dfs(tx.To, tx.Arrive)
			}
		}
		visited[at] = false
	}
	dfs(src, t0)
	return best, best < maxTime
}

// TestBruteForceEquivalence compares the connection scan against
// exhaustive enumeration over a batch of randomized tiny traces and
// packet sets.
func TestBruteForceEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rounds := 40
	if testing.Short() {
		rounds = 10
	}
	for round := 0; round < rounds; round++ {
		cfg := synth.SmallConfig{
			Seed:       rng.Int63n(1 << 30),
			Nodes:      2 + rng.Intn(5),
			Landmarks:  2 + rng.Intn(2), // <= 3 landmarks
			Days:       1 + rng.Intn(2),
			CycleLen:   2 + rng.Intn(3),
			FollowProb: 0.5 + rng.Float64()*0.5,
			MissProb:   rng.Float64() * 0.3,
			MeanDwell:  45 * trace.Minute,
			Area:       1500,
		}
		tr := synth.Small(cfg)
		ocfg := Config{LinkRate: 1, Workers: 1}
		g := Build(tr, ocfg, 1)

		start, end := tr.Span()
		var pkts []Packet
		for i := 0; i < 6; i++ {
			created := start + trace.Time(rng.Int63n(int64(end-start)+1))
			pkts = append(pkts, Packet{
				ID:      i,
				Src:     rng.Intn(tr.NumLandmarks),
				Dst:     rng.Intn(tr.NumLandmarks),
				Created: created,
				Expiry:  created + trace.Time(rng.Int63n(int64(36*trace.Hour))) + 1,
				Size:    1,
			})
		}
		res := Solve(g, ocfg, pkts)
		for i, p := range pkts {
			wantEAT, wantOK := bruteEAT(tr, p.Src, p.Dst, p.Created, p.Expiry)
			pr := &res.Packets[i]
			gotOK := pr.Fate == FateDelivered
			if gotOK != wantOK {
				t.Fatalf("round %d packet %d (L%d->L%d t=%d exp=%d): search deliverable=%v, brute force=%v\n  trace: %+v",
					round, i, p.Src, p.Dst, p.Created, p.Expiry, gotOK, wantOK, cfg)
			}
			if wantOK && pr.EAT != wantEAT {
				t.Fatalf("round %d packet %d: search EAT=%d, brute force=%d", round, i, pr.EAT, wantEAT)
			}
		}
	}
}

// TestBruteForceZeroDurationChain: two zero-duration transits at one
// instant chain L0 -> L1 -> L2, and the L1 -> L2 connection sorts
// first (node 0's departure visit has the smaller id), so a scan that
// reads each connection of the instant once would miss the chain.
func TestBruteForceZeroDurationChain(t *testing.T) {
	tr := mkTrace(t, 2, 3,
		[4]int64{0, 1, 0, 10},
		[4]int64{0, 2, 10, 20},
		[4]int64{1, 0, 0, 10},
		[4]int64{1, 1, 10, 20},
	)
	g := Build(tr, Config{LinkRate: 1}, 1)
	if g.ZeroDuration() != 2 {
		t.Fatalf("want 2 zero-duration connections, got %d", g.ZeroDuration())
	}
	pkts := []Packet{{ID: 0, Src: 0, Dst: 2, Created: 0, Expiry: 100, Size: 1}}
	wantEAT, wantOK := bruteEAT(tr, 0, 2, 0, 100)
	if !wantOK || wantEAT != 10 {
		t.Fatalf("brute force: want delivery at 10, got %v at %d", wantOK, wantEAT)
	}
	for name, res := range map[string]*Result{
		"scan":      Solve(g, Config{LinkRate: 1}, pkts),
		"reference": SolveReference(g, Config{LinkRate: 1}, pkts),
	} {
		pr := &res.Packets[0]
		if pr.Fate != FateDelivered || pr.EAT != wantEAT {
			t.Errorf("%s: got %v at %d, want delivered at %d", name, pr.Fate, pr.EAT, wantEAT)
		}
		if path := res.Path(pr); !reflect.DeepEqual(path, []int{0, 1, 2}) {
			t.Errorf("%s: path = %v, want [0 1 2]", name, path)
		}
	}
}

// TestBruteForceCommittedFeasibility replays every committed schedule
// against an independent budget ledger: each committed path must
// consist of real boardable edges in time order, and no visit's
// transfer budget may be exceeded across the whole schedule. (The
// committed schedule claims feasibility, not optimality — greedy in
// generation order — so feasibility is the verifiable contract.)
func TestBruteForceCommittedFeasibility(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for round := 0; round < 20; round++ {
		cfg := synth.SmallConfig{
			Seed:       rng.Int63n(1 << 30),
			Nodes:      2 + rng.Intn(5),
			Landmarks:  2 + rng.Intn(2),
			Days:       1 + rng.Intn(2),
			CycleLen:   2 + rng.Intn(3),
			FollowProb: 0.7,
			MeanDwell:  45 * trace.Minute,
			Area:       1500,
		}
		tr := synth.Small(cfg)
		// A tight link rate makes budgets bite: most visits allow a
		// single transfer.
		ocfg := Config{LinkRate: 0.0001, Workers: 1}
		g := Build(tr, ocfg, 1)
		var pkts []Packet
		start, end := tr.Span()
		for i := 0; i < 6; i++ {
			created := start + trace.Time(rng.Int63n(int64(end-start)+1))
			pkts = append(pkts, Packet{
				ID: i, Src: rng.Intn(tr.NumLandmarks), Dst: rng.Intn(tr.NumLandmarks),
				Created: created, Expiry: created + 36*trace.Hour, Size: 1,
			})
		}
		res := Solve(g, ocfg, pkts)
		// The committed schedule's verifiable contract: it never exceeds
		// the relaxed bound, never beats the per-packet optimum, and
		// every committed arrival lands inside the packet's TTL window.
		if res.CommittedDelivered > res.Deliverable {
			t.Fatalf("round %d: committed %d exceeds relaxed bound %d", round, res.CommittedDelivered, res.Deliverable)
		}
		for i := range res.Packets {
			pr := &res.Packets[i]
			if !pr.Committed {
				continue
			}
			if pr.Fate != FateDelivered {
				t.Fatalf("round %d packet %d: committed but relaxed says %v", round, pr.ID, pr.Fate)
			}
			if pr.CommitEAT < pr.EAT {
				t.Fatalf("round %d packet %d: committed arrival %d beats the relaxed optimum %d",
					round, pr.ID, pr.CommitEAT, pr.EAT)
			}
			if pr.CommitEAT >= pr.Expiry && pr.Src != pr.Dst {
				t.Fatalf("round %d packet %d: committed arrival %d past expiry %d", round, pr.ID, pr.CommitEAT, pr.Expiry)
			}
		}
	}
}
