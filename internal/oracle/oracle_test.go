package oracle

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/synth"
	"repro/internal/trace"
)

// mkTrace assembles a hand-built trace from visit tuples
// (node, landmark, start, end), sorted and validated.
func mkTrace(t *testing.T, nodes, landmarks int, visits ...[4]int64) *trace.Trace {
	t.Helper()
	tr := &trace.Trace{Name: "hand", NumNodes: nodes, NumLandmarks: landmarks}
	for _, v := range visits {
		tr.Visits = append(tr.Visits, trace.Visit{
			Node: int(v[0]), Landmark: int(v[1]),
			Start: trace.Time(v[2]), End: trace.Time(v[3]),
		})
	}
	tr.SortVisits()
	if err := tr.Validate(); err != nil {
		t.Fatalf("hand-built trace invalid: %v", err)
	}
	return tr
}

// TestCapacityContention: one contact pair with transfer budget for a
// single packet. Both packets are deliverable in the relaxed bound, but
// the committed schedule may only deliver one — the budget of the
// departure and arrival visits is consumed by the first packet in
// generation order.
func TestCapacityContention(t *testing.T) {
	// Node 0 visits L0 for 10s, then L1: one edge L0->L1, budget
	// max(1, 0.05*10) = 1 transfer on each endpoint visit.
	tr := mkTrace(t, 1, 2,
		[4]int64{0, 0, 0, 10},
		[4]int64{0, 1, 20, 30},
	)
	cfg := Config{LinkRate: 0.05}
	pkts := []Packet{
		{ID: 0, Src: 0, Dst: 1, Created: 0, Expiry: 100, Size: 1},
		{ID: 1, Src: 0, Dst: 1, Created: 0, Expiry: 100, Size: 1},
	}
	res := SolveTrace(tr, cfg, pkts)
	if res.Deliverable != 2 {
		t.Fatalf("relaxed bound: want 2 deliverable, got %d", res.Deliverable)
	}
	for i := range res.Packets {
		if got := res.Packets[i].EAT; got != 20 {
			t.Errorf("packet %d: EAT = %d, want 20", i, got)
		}
	}
	if res.CommittedDelivered != 1 {
		t.Fatalf("committed schedule: want 1 delivered under budget 1, got %d", res.CommittedDelivered)
	}
	// Generation order wins the contested budget.
	if !res.Packets[0].Committed || res.Packets[1].Committed {
		t.Fatalf("commit order: want packet 0 committed and packet 1 refused, got %v/%v",
			res.Packets[0].Committed, res.Packets[1].Committed)
	}
	// A higher link rate clears the contention.
	res = SolveTrace(tr, Config{LinkRate: 1}, pkts)
	if res.CommittedDelivered != 2 {
		t.Fatalf("committed schedule at budget 10: want 2 delivered, got %d", res.CommittedDelivered)
	}
}

// TestTTLMidPath: the only path reaches the destination at t=60; the
// packet is delivered iff it arrives strictly before expiry — TTL
// cutting the path mid-way flips the fate.
func TestTTLMidPath(t *testing.T) {
	tr := mkTrace(t, 2, 3,
		[4]int64{0, 0, 0, 10},
		[4]int64{0, 1, 20, 30},
		[4]int64{1, 1, 40, 50},
		[4]int64{1, 2, 60, 70},
	)
	cfg := Config{LinkRate: 1}
	for _, tc := range []struct {
		expiry trace.Time
		fate   Fate
	}{
		{expiry: 100, fate: FateDelivered},
		{expiry: 61, fate: FateDelivered},
		{expiry: 60, fate: FateNoPath}, // arrival at 60 is not < 60
		{expiry: 45, fate: FateNoPath}, // expires while waiting at L1
	} {
		res := SolveTrace(tr, cfg, []Packet{{ID: 0, Src: 0, Dst: 2, Created: 0, Expiry: tc.expiry, Size: 1}})
		if got := res.Packets[0].Fate; got != tc.fate {
			t.Errorf("expiry %d: fate = %v, want %v", tc.expiry, got, tc.fate)
		}
		if tc.fate == FateDelivered {
			if got := res.Packets[0].EAT; got != 60 {
				t.Errorf("expiry %d: EAT = %d, want 60", tc.expiry, got)
			}
			if path := res.Path(&res.Packets[0]); !reflect.DeepEqual(path, []int{0, 1, 2}) {
				t.Errorf("expiry %d: path = %v, want [0 1 2]", tc.expiry, path)
			}
		}
	}
}

// TestWaitOverForward: an early carrier goes the slow way (arriving at
// t=200 via L1); waiting at the source for a later direct carrier
// arrives at t=60. The oracle must prefer waiting.
func TestWaitOverForward(t *testing.T) {
	tr := mkTrace(t, 2, 3,
		// Node 0: leaves L0 early, crawls to L1, reaches L2 at 200.
		[4]int64{0, 0, 0, 5},
		[4]int64{0, 1, 100, 110},
		[4]int64{0, 2, 200, 210},
		// Node 1: leaves L0 later but goes straight to L2 at 60.
		[4]int64{1, 0, 40, 50},
		[4]int64{1, 2, 60, 70},
	)
	res := SolveTrace(tr, Config{LinkRate: 1}, []Packet{
		{ID: 0, Src: 0, Dst: 2, Created: 0, Expiry: 1000, Size: 1},
	})
	pr := &res.Packets[0]
	if pr.Fate != FateDelivered || pr.EAT != 60 {
		t.Fatalf("want delivered at 60 (wait for the direct carrier), got %v at %d", pr.Fate, pr.EAT)
	}
	if path := res.Path(pr); !reflect.DeepEqual(path, []int{0, 2}) {
		t.Fatalf("path = %v, want the direct [0 2]", path)
	}
}

// TestSameLandmarkConsecutive: consecutive visits to the same landmark
// produce no contact edge — the node never left.
func TestSameLandmarkConsecutive(t *testing.T) {
	tr := mkTrace(t, 1, 2,
		[4]int64{0, 0, 0, 10},
		[4]int64{0, 0, 20, 30},
		[4]int64{0, 1, 40, 50},
	)
	g := Build(tr, Config{LinkRate: 1}, 1)
	if g.NumEdges() != 1 {
		t.Fatalf("want 1 edge (the L0->L1 transit), got %d", g.NumEdges())
	}
	// The packet can still ride the merged stay: boardable up to the
	// second visit's end (t=30).
	res := Solve(g, Config{LinkRate: 1}, []Packet{
		{ID: 0, Src: 0, Dst: 1, Created: 15, Expiry: 1000, Size: 1},
	})
	if pr := &res.Packets[0]; pr.Fate != FateDelivered || pr.EAT != 40 {
		t.Fatalf("want delivered at 40 via the merged stay, got %v at %d", pr.Fate, pr.EAT)
	}
}

// TestSizeGates: packets too big for node buffers (or the source
// station) are undeliverable no matter the contact structure.
func TestSizeGates(t *testing.T) {
	tr := mkTrace(t, 1, 2,
		[4]int64{0, 0, 0, 10},
		[4]int64{0, 1, 20, 30},
	)
	pk := func(size int64) []Packet {
		return []Packet{{ID: 0, Src: 0, Dst: 1, Created: 0, Expiry: 100, Size: size}}
	}
	res := SolveTrace(tr, Config{LinkRate: 1, NodeMemory: 100}, pk(101))
	if res.Packets[0].Fate != FateTooBig {
		t.Fatalf("node-memory gate: got %v, want too-big", res.Packets[0].Fate)
	}
	res = SolveTrace(tr, Config{LinkRate: 1, NodeMemory: 100, StationMemory: 50}, pk(60))
	if res.Packets[0].Fate != FateTooBig {
		t.Fatalf("station-memory gate: got %v, want too-big", res.Packets[0].Fate)
	}
	res = SolveTrace(tr, Config{LinkRate: 1, NodeMemory: 100}, pk(100))
	if res.Packets[0].Fate != FateDelivered {
		t.Fatalf("fitting packet: got %v, want delivered", res.Packets[0].Fate)
	}
}

// TestStationLedger: with station storage for one packet, two packets
// whose waits overlap at an intermediate landmark cannot both commit.
func TestStationLedger(t *testing.T) {
	// Both packets must wait at L1 over the overlapping window [20,60).
	tr := mkTrace(t, 3, 3,
		[4]int64{0, 0, 0, 10},
		[4]int64{0, 1, 20, 30},
		[4]int64{1, 0, 0, 12},
		[4]int64{1, 1, 22, 32},
		[4]int64{2, 1, 55, 58},
		[4]int64{2, 2, 60, 70},
	)
	pkts := []Packet{
		{ID: 0, Src: 0, Dst: 2, Created: 0, Expiry: 1000, Size: 40},
		{ID: 1, Src: 0, Dst: 2, Created: 0, Expiry: 1000, Size: 40},
	}
	// Station fits one 40-byte packet, not two.
	res := SolveTrace(tr, Config{LinkRate: 1, StationMemory: 60}, pkts)
	if res.Deliverable != 2 {
		t.Fatalf("relaxed bound ignores station storage: want 2, got %d", res.Deliverable)
	}
	if res.CommittedDelivered != 1 {
		t.Fatalf("committed: want 1 under station pressure, got %d", res.CommittedDelivered)
	}
	// Ample station storage commits both.
	res = SolveTrace(tr, Config{LinkRate: 1, StationMemory: 100}, pkts)
	if res.CommittedDelivered != 2 {
		t.Fatalf("committed: want 2 with room for both, got %d", res.CommittedDelivered)
	}
}

// TestBuildDeterminism: the parallel graph build must produce a
// bit-identical graph for every worker count, pinned by Fingerprint.
func TestBuildDeterminism(t *testing.T) {
	tr := synth.Small(synth.DefaultSmall())
	cfg := Config{LinkRate: 0.3}
	want := Build(tr, cfg, 1).Fingerprint()
	for _, workers := range []int{2, 3, 8, runtime.GOMAXPROCS(0)} {
		if got := Build(tr, cfg, workers).Fingerprint(); got != want {
			t.Fatalf("workers=%d: fingerprint %x != single-worker %x", workers, got, want)
		}
	}
}

// TestSolveDeterminism: the parallel relaxed solve must produce
// identical results (fates, arrival times, paths) for every worker
// count.
func TestSolveDeterminism(t *testing.T) {
	tr := synth.Small(synth.DefaultSmall())
	base := Config{LinkRate: 0.3}
	g := Build(tr, base, 0)
	var pkts []Packet
	for i := 0; i < 200; i++ {
		pkts = append(pkts, Packet{
			ID:      i,
			Src:     i % tr.NumLandmarks,
			Dst:     (i * 3) % tr.NumLandmarks,
			Created: trace.Time(i) * 3600,
			Expiry:  trace.Time(i)*3600 + 48*trace.Hour,
			Size:    1024,
		})
	}
	cfg := base
	cfg.Workers = 1
	want := Solve(g, cfg, pkts)
	for _, workers := range []int{2, 7, runtime.GOMAXPROCS(0)} {
		cfg.Workers = workers
		got := Solve(g, cfg, pkts)
		if !reflect.DeepEqual(want.Packets, got.Packets) {
			t.Fatalf("workers=%d: per-packet results diverged", workers)
		}
		if !reflect.DeepEqual(want.paths, got.paths) {
			t.Fatalf("workers=%d: path layout diverged", workers)
		}
		if want.Deliverable != got.Deliverable || want.CommittedDelivered != got.CommittedDelivered {
			t.Fatalf("workers=%d: counts diverged", workers)
		}
	}
}

// TestEqualArrivalTieBreaks pins the two tie rules that keep the paths
// and the committed charges independent of the search algorithm. Two
// carriers leave L0 together and reach L3 at t=40 through L1 and L2,
// both labelled at t=20: the smaller landmark, L1, is the parent. Two
// more ride L0 -> L1 side by side on equal connections: the committed
// schedule charges the first in the array, node 2's, whose arrival
// visit node 2 needs again to carry the next packet on to L4.
func TestEqualArrivalTieBreaks(t *testing.T) {
	tr := mkTrace(t, 4, 5,
		[4]int64{0, 0, 0, 10},
		[4]int64{0, 2, 20, 25},
		[4]int64{0, 3, 40, 50},
		[4]int64{1, 0, 0, 10},
		[4]int64{1, 1, 20, 25},
		[4]int64{1, 3, 40, 50},
		[4]int64{2, 0, 100, 110},
		[4]int64{2, 1, 120, 130},
		[4]int64{2, 4, 140, 150},
		[4]int64{3, 0, 100, 110},
		[4]int64{3, 1, 120, 130},
	)
	cfg := Config{LinkRate: 0.01}
	pkts := []Packet{
		{ID: 0, Src: 0, Dst: 3, Created: 0, Expiry: 1000, Size: 1},
		{ID: 1, Src: 0, Dst: 1, Created: 100, Expiry: 1000, Size: 1},
		{ID: 2, Src: 0, Dst: 4, Created: 100, Expiry: 1000, Size: 1},
	}
	g := Build(tr, cfg, 1)
	res := Solve(g, cfg, pkts)
	if path := res.Path(&res.Packets[0]); !reflect.DeepEqual(path, []int{0, 1, 3}) {
		t.Errorf("equal labels at L1 and L2: path = %v, want [0 1 3]", path)
	}
	if !res.Packets[1].Committed || res.Packets[2].Committed {
		t.Errorf("equal connections: committed %v/%v, want packet 1 on node 2's connection and packet 2 refused",
			res.Packets[1].Committed, res.Packets[2].Committed)
	}
	if err := DiffResults(res, SolveReference(g, cfg, pkts), true); err != nil {
		t.Errorf("scan vs reference: %v", err)
	}
}

// TestZeroDurationTieNoCycle: four zero-duration transits at t=10, in
// array order L0 -> L3, L3 -> L2, L2 -> L1, L1 -> L2. The last one
// reaches L2 at its label from L1, which is the smaller landmark with
// the same label as L2's parent L3 — but L1 descends from L2, and
// taking the tie would make L1 and L2 each other's parent. The path
// must stay L0 -> L3 -> L2, as the reference search finds it.
func TestZeroDurationTieNoCycle(t *testing.T) {
	tr := mkTrace(t, 4, 4,
		[4]int64{0, 0, 0, 10},
		[4]int64{0, 3, 10, 20},
		[4]int64{1, 3, 0, 10},
		[4]int64{1, 2, 10, 20},
		[4]int64{2, 2, 0, 10},
		[4]int64{2, 1, 10, 20},
		[4]int64{3, 1, 0, 10},
		[4]int64{3, 2, 10, 20},
	)
	cfg := Config{LinkRate: 1}
	g := Build(tr, cfg, 1)
	if g.ZeroDuration() != 4 {
		t.Fatalf("want 4 zero-duration connections, got %d", g.ZeroDuration())
	}
	s := newScan(g)
	if eat, ok := s.run(0, 0, 2, 100); !ok || eat != 10 {
		t.Fatalf("scan: got %v at %d, want delivery at 10", ok, eat)
	}
	steps := 0
	for lm := int32(2); lm >= 0; lm = s.tree().parent[lm] {
		if steps++; steps > g.L {
			t.Fatalf("parent chain from L2 does not end: %v", s.tree().parent)
		}
	}
	pkts := []Packet{{ID: 0, Src: 0, Dst: 2, Created: 0, Expiry: 100, Size: 1}}
	res := Solve(g, cfg, pkts)
	if path := res.Path(&res.Packets[0]); !reflect.DeepEqual(path, []int{0, 3, 2}) {
		t.Errorf("path = %v, want [0 3 2]", path)
	}
	if err := DiffResults(res, SolveReference(g, cfg, pkts), true); err != nil {
		t.Errorf("scan vs reference: %v", err)
	}
}
