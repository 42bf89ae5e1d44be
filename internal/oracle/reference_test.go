package oracle

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// The reference search: the label-setting (Dijkstra-style) earliest-
// arrival search the connection scan replaced, kept only as a
// cross-check. It pops landmarks in (label, landmark) order and, from
// each, binary-searches every (from, to) edge group for the first
// boardable departure, reading the best arrival from a suffix minimum.
// It implements the same search interface, so solve, commit and the
// regret replay run unchanged on it.

// refGroup holds every connection from one landmark to one other,
// columnar in the connection array's (depart, arrive, depVis) order.
// minArr[i] is the minimum of arrive[i:].
type refGroup struct {
	to                     int32
	depart, arrive, minArr []trace.Time
	conn                   []int32 // index in Graph.conns
}

type reference struct {
	g    *Graph
	adj  [][]refGroup // adj[from], groups sorted by to
	heap []heapItem
	labels
}

type heapItem struct {
	t  trace.Time
	lm int32
}

func newReference(g *Graph) search {
	s := &reference{g: g, adj: make([][]refGroup, g.L), labels: newLabels(g.L)}
	for k, c := range g.conns {
		groups := s.adj[c.from]
		gi := slices.IndexFunc(groups, func(grp refGroup) bool { return grp.to == c.to })
		if gi < 0 {
			groups = append(groups, refGroup{to: c.to})
			gi = len(groups) - 1
		}
		grp := &groups[gi]
		grp.depart = append(grp.depart, c.depart)
		grp.arrive = append(grp.arrive, c.arrive)
		grp.conn = append(grp.conn, int32(k))
		s.adj[c.from] = groups
	}
	for _, groups := range s.adj {
		slices.SortFunc(groups, func(a, b refGroup) int { return int(a.to - b.to) })
		for gi := range groups {
			grp := &groups[gi]
			grp.minArr = make([]trace.Time, len(grp.arrive))
			min := maxTime
			for k := len(grp.arrive) - 1; k >= 0; k-- {
				if grp.arrive[k] < min {
					min = grp.arrive[k]
				}
				grp.minArr[k] = min
			}
		}
	}
	return s
}

func (s *reference) run(src int, t0 trace.Time, dst int, deadline trace.Time) (trace.Time, bool) {
	s.reset(src, t0)
	s.heap = append(s.heap[:0], heapItem{t: t0, lm: int32(src)})
	for len(s.heap) > 0 {
		it := s.pop()
		if s.dist[it.lm] != it.t {
			continue // stale entry
		}
		if int(it.lm) == dst {
			return it.t, true
		}
		for gi := range s.adj[it.lm] {
			grp := &s.adj[it.lm][gi]
			i := firstBoardable(grp, it.t)
			if i == len(grp.depart) {
				continue
			}
			if s.residual == nil {
				if a := grp.minArr[i]; a < deadline {
					s.relax(grp.to, a, it.lm, -1)
				}
				continue
			}
			// Committed mode: the minimum arrival among edges with
			// residual budget on both endpoint visits, the lowest index
			// on ties. minArr lower-bounds the remaining suffix.
			best := maxTime
			bi := -1
			for k := i; k < len(grp.depart); k++ {
				if best <= grp.minArr[k] {
					break
				}
				if grp.arrive[k] >= best || grp.arrive[k] >= deadline {
					continue
				}
				c := &s.g.conns[grp.conn[k]]
				if s.residual[c.depVis] < 1 || s.residual[c.arrVis] < 1 {
					continue
				}
				best = grp.arrive[k]
				bi = k
			}
			if bi >= 0 {
				s.relax(grp.to, best, it.lm, grp.conn[bi])
			}
		}
	}
	return 0, false
}

// firstBoardable is the first group edge departing at or after t.
func firstBoardable(grp *refGroup, t trace.Time) int {
	i, _ := slices.BinarySearch(grp.depart, t)
	return i
}

func (s *reference) relax(lm int32, t trace.Time, from, conn int32) {
	if s.dist[lm] <= t {
		return
	}
	s.set(lm, t, from, conn)
	s.heap = append(s.heap, heapItem{t: t, lm: lm})
	for i := len(s.heap) - 1; i > 0; {
		p := (i - 1) / 2
		if !heapLess(s.heap[i], s.heap[p]) {
			break
		}
		s.heap[i], s.heap[p] = s.heap[p], s.heap[i]
		i = p
	}
}

func (s *reference) pop() heapItem {
	top := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(s.heap) && heapLess(s.heap[l], s.heap[m]) {
			m = l
		}
		if r < len(s.heap) && heapLess(s.heap[r], s.heap[m]) {
			m = r
		}
		if m == i {
			return top
		}
		s.heap[i], s.heap[m] = s.heap[m], s.heap[i]
		i = m
	}
}

// heapLess orders by label time, ties by landmark id, so the pop order
// (and the parent tree on equal labels) is deterministic.
func heapLess(a, b heapItem) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.lm < b.lm
}

func (s *reference) hop(from int, t trace.Time, to int) (trace.Time, bool) {
	if from < 0 || from >= s.g.L {
		return 0, false
	}
	for gi := range s.adj[from] {
		grp := &s.adj[from][gi]
		if int(grp.to) != to {
			continue
		}
		if i := firstBoardable(grp, t); i < len(grp.depart) {
			return grp.minArr[i], true
		}
	}
	return 0, false
}

// SolveReference is Solve on the reference search.
func SolveReference(g *Graph, cfg Config, pkts []Packet) *Result {
	return solve(g, cfg, pkts, newReference)
}

// RegretReference is Regret on the reference search.
func RegretReference(log *telemetry.Log, tr *trace.Trace, cfg Config) *RegretReport {
	return regret(log, tr, cfg, newReference)
}

// ZeroDuration counts the connections that arrive the instant they
// depart. Only on graphs without them does the scan promise the
// reference's paths (and so its committed schedule), not just its
// fates and arrival times.
func (g *Graph) ZeroDuration() int {
	n := 0
	for _, c := range g.conns {
		if c.arrive == c.depart {
			n++
		}
	}
	return n
}

// DiffResults returns the first difference between two solves: fates
// and earliest arrivals always, paths and the committed schedule too
// when full is set.
func DiffResults(a, b *Result, full bool) error {
	if len(a.Packets) != len(b.Packets) {
		return fmt.Errorf("%d vs %d packets", len(a.Packets), len(b.Packets))
	}
	for i := range a.Packets {
		pa, pb := &a.Packets[i], &b.Packets[i]
		if pa.ID != pb.ID || pa.Fate != pb.Fate || pa.EAT != pb.EAT {
			return fmt.Errorf("packet %d: %v at %d vs %v at %d", pa.ID, pa.Fate, pa.EAT, pb.Fate, pb.EAT)
		}
		if !full {
			continue
		}
		if x, y := a.Path(pa), b.Path(pb); !reflect.DeepEqual(x, y) {
			return fmt.Errorf("packet %d: path %v vs %v", pa.ID, x, y)
		}
		if pa.Committed != pb.Committed || pa.CommitEAT != pb.CommitEAT {
			return fmt.Errorf("packet %d: committed %v at %d vs %v at %d",
				pa.ID, pa.Committed, pa.CommitEAT, pb.Committed, pb.CommitEAT)
		}
	}
	if a.Deliverable != b.Deliverable || a.MeanDelay != b.MeanDelay {
		return fmt.Errorf("deliverable %d (mean delay %g) vs %d (%g)", a.Deliverable, a.MeanDelay, b.Deliverable, b.MeanDelay)
	}
	if full && a.CommittedDelivered != b.CommittedDelivered {
		return fmt.Errorf("committed %d vs %d", a.CommittedDelivered, b.CommittedDelivered)
	}
	return nil
}

// TestScanMatchesReference compares the connection scan with the
// reference search on randomized traces under tight transfer budgets
// and station storage, so the committed schedule's contention and
// ledger refusals are exercised too. A fifth of the traces have some
// of their transits squeezed to zero duration, a fifth run on a coarse
// clock with companion nodes, where the tie-breaks decide the paths, a
// fifth have both, and a fifth are dense instant traces whose
// zero-duration transits run both ways between the same landmarks at
// one instant. Every delivered path must be a simple chain from the
// source to the destination.
func TestScanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	rounds := 2000
	if testing.Short() {
		rounds = 100
	}
	var deliverable, refused, zero int
	for round := 0; round < rounds; round++ {
		scfg := synth.SmallConfig{
			Seed:       rng.Int63n(1 << 30),
			Nodes:      2 + rng.Intn(12),
			Landmarks:  2 + rng.Intn(8),
			Days:       1 + rng.Intn(3),
			CycleLen:   2 + rng.Intn(4),
			FollowProb: 0.5 + rng.Float64()*0.5,
			MissProb:   rng.Float64() * 0.3,
			MeanDwell:  trace.Time(5+rng.Intn(60)) * trace.Minute,
			Area:       1500,
		}
		tr := synth.Small(scfg)
		switch round % 5 {
		case 1:
			tr = closeGaps(tr, rng, 0.3)
		case 2:
			tr = coarsen(tr, rng)
		case 3:
			tr = closeGaps(coarsen(tr, rng), rng, 0.3)
		case 4:
			tr = instants(rng)
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			LinkRate:      0.0005 * rng.Float64(),
			StationMemory: int64(10 * (1 + rng.Intn(3))),
			Workers:       1 + rng.Intn(3),
		}
		g := Build(tr, cfg, cfg.Workers)
		start, end := tr.Span()
		var pkts []Packet
		for i := 0; i < 40; i++ {
			created := start + trace.Time(rng.Int63n(int64(end-start)+1))
			pkts = append(pkts, Packet{
				ID:      i,
				Src:     rng.Intn(tr.NumLandmarks),
				Dst:     rng.Intn(tr.NumLandmarks),
				Created: created,
				Expiry:  created + trace.Time(rng.Int63n(int64(48*trace.Hour))) + 1,
				Size:    10,
			})
		}
		res := Solve(g, cfg, pkts)
		if err := DiffResults(res, SolveReference(g, cfg, pkts), g.ZeroDuration() == 0); err != nil {
			t.Fatalf("round %d (%+v, %+v): scan vs reference: %v", round, scfg, cfg, err)
		}
		for i := range res.Packets {
			if pr := &res.Packets[i]; pr.Fate == FateDelivered {
				path := res.Path(pr)
				seen := make(map[int]bool)
				for _, lm := range path {
					if seen[lm] {
						t.Fatalf("round %d packet %d: path %v revisits L%d", round, pr.ID, path, lm)
					}
					seen[lm] = true
				}
				if path[0] != pr.Src || path[len(path)-1] != pr.Dst {
					t.Fatalf("round %d packet %d: path %v is not L%d..L%d", round, pr.ID, path, pr.Src, pr.Dst)
				}
			}
		}
		if g.ZeroDuration() > 0 {
			zero++
		}
		deliverable += res.Deliverable
		refused += res.Deliverable - res.CommittedDelivered
	}
	t.Logf("%d rounds: %d deliverable, %d refused by the committed schedule, %d traces with zero-duration transits",
		rounds, deliverable, refused, zero)
	if refused == 0 {
		t.Fatal("no packet met contention: the committed comparison is vacuous")
	}
}

// closeGaps returns a copy of tr in which a random share of each node's
// inter-visit gaps is closed (the visit stretches to the next one's
// start), turning those transits into zero-duration ones.
func closeGaps(tr *trace.Trace, rng *rand.Rand, share float64) *trace.Trace {
	out := &trace.Trace{Name: tr.Name, NumNodes: tr.NumNodes, NumLandmarks: tr.NumLandmarks, Visits: slices.Clone(tr.Visits)}
	last := make([]int, tr.NumNodes)
	for n := range last {
		last[n] = -1
	}
	for i, v := range out.Visits {
		if p := last[v.Node]; p >= 0 && rng.Float64() < share {
			out.Visits[p].End = v.Start
		}
		last[v.Node] = i
	}
	return out
}

// instants returns a trace of a few nodes hopping between a few
// landmarks on a 10-second clock with almost every gap closed: most
// transits have zero duration, and at one instant several of them chain
// and cross in both directions.
func instants(rng *rand.Rand) *trace.Trace {
	tr := &trace.Trace{Name: "instants", NumNodes: 2 + rng.Intn(7), NumLandmarks: 3 + rng.Intn(4)}
	for n := 0; n < tr.NumNodes; n++ {
		t := trace.Time(10 * rng.Intn(3))
		for k := 2 + rng.Intn(6); k > 0; k-- {
			next := t + trace.Time(10*(1+rng.Intn(2)))
			end := next
			if rng.Intn(5) == 0 {
				end -= 5
			}
			tr.Visits = append(tr.Visits, trace.Visit{Node: n, Landmark: rng.Intn(tr.NumLandmarks), Start: t, End: end})
			t = next
		}
	}
	tr.SortVisits()
	return tr
}

// coarsen returns a copy of tr on a 5-minute clock (visits start on the
// next tick and end on the previous one, never before their start) in
// which a random half of the nodes have a companion repeating four in
// five of their visits: equal labels at different landmarks and
// connections with equal times become common.
func coarsen(tr *trace.Trace, rng *rand.Rand) *trace.Trace {
	const tick = 5 * trace.Minute
	out := &trace.Trace{Name: tr.Name, NumNodes: tr.NumNodes, NumLandmarks: tr.NumLandmarks}
	twin := make([]int, tr.NumNodes)
	for n := range twin {
		twin[n] = -1
		if rng.Intn(2) == 0 {
			twin[n] = out.NumNodes
			out.NumNodes++
		}
	}
	for _, v := range tr.Visits {
		v.Start = (v.Start + tick - 1) / tick * tick
		v.End = max(v.Start, v.End/tick*tick)
		out.Visits = append(out.Visits, v)
		if twin[v.Node] >= 0 && rng.Intn(5) > 0 {
			v.Node = twin[v.Node]
			out.Visits = append(out.Visits, v)
		}
	}
	out.SortVisits()
	return out
}
