// Package oracle is the offline optimal router: an independent, second
// implementation of the simulator's physics that answers, for every
// packet, "what is the best any store-and-forward method could have
// done on this trace?". It is both the yardstick every report can cite
// (an upper bound beside the six methods) and a standing differential
// test — validate's oracle-dominance property checks every engine run
// against it.
//
// The oracle works on the time-expanded contact graph: each transit a
// node makes between consecutive visits to different landmarks is one
// contact edge (pickup any time up to the departure visit's end, arrival
// at the next visit's start), and holding a packet at a landmark station
// between two edges is an implicit wait edge. Two answers are computed
// per packet (see Solve):
//
//   - The relaxed earliest-arrival bound: a per-packet connection scan
//     with capacities ignored. This is a true upper bound on every
//     method — any sequence of engine transfers that delivers a packet
//     maps, visit by visit, onto a chain of contact edges the scan
//     also considers (see DESIGN.md "Oracle architecture" for the
//     induction) — so dominance against it is a theorem, not a
//     heuristic, and regret measured against it is never negative.
//   - The capacity-respecting committed schedule: packets routed in
//     generation order, each consuming residual per-visit transfer
//     budget (the engine's per-contact budget formula) and station storage,
//     so the committed delivery count is a feasible schedule, not a
//     bound.
//
// The graph build is parallel over nodes and deterministic: equal
// traces produce bit-identical graphs for every worker count
// (Fingerprint pins this in tests).
package oracle

import (
	"cmp"
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"slices"
	"sync"

	"repro/internal/trace"
)

// Config mirrors the engine physics the oracle enforces. ConfigFrom
// derives one from a sim.Config; the zero value means "no constraint"
// for every field except LinkRate (0 still yields the engine's minimum
// budget of one transfer per visit).
type Config struct {
	// PacketSize and NodeMemory gate deliverability: a packet larger
	// than every node buffer can never be carried (NodeMemory <= 0 =
	// unlimited).
	NodeMemory int64
	// StationMemory bounds the wait edges in the committed schedule and
	// gates generation (a packet that cannot enter its source station is
	// undeliverable); <= 0 = unlimited, the paper's setting.
	StationMemory int64
	// LinkRate (packets/second) and MaxContactTransfers derive each
	// visit's transfer budget exactly as the engine does:
	// max(1, LinkRate*duration), capped when MaxContactTransfers > 0.
	LinkRate            float64
	MaxContactTransfers int
	// Workers bounds the parallel graph build; <= 0 = GOMAXPROCS.
	Workers int
	// SkipCommitted computes only the relaxed bound (regret joins and
	// dominance checks need nothing else and skip the expensive part).
	SkipCommitted bool
}

// conn is one contact edge (a connection, in timetable terms): a node's
// transit from landmark from, boardable up to depart (the departure
// visit's end), to landmark to, where the packet is available from
// arrive (the arrival visit's start). depVis/arrVis identify the two
// visits whose transfer budgets the committed schedule charges.
type conn struct {
	depart, arrive trace.Time
	from, to       int32
	depVis, arrVis int32
}

// Graph is the time-expanded contact graph of one trace: one flat
// connection array in the strict total order (depart, arrive, depVis).
// Visit ids are globally unique, so no two connections tie and the
// order is independent of how the array was filled.
type Graph struct {
	L     int // number of landmarks
	conns []conn
	// budget[v] is the transfer budget of visit v (global visit index in
	// node-major, time-ascending order), the engine's per-contact budget.
	budget []int32
}

// NumEdges returns the number of contact edges (transits) in the graph.
func (g *Graph) NumEdges() int { return len(g.conns) }

// Build constructs the contact graph from a trace. The build is
// parallel over nodes (workers <= 0 = GOMAXPROCS) and deterministic:
// each node's connections land in slots preassigned by a count pass,
// and the final sort key is a strict total order, so every worker count
// yields a bit-identical graph.
func Build(tr *trace.Trace, cfg Config, workers int) *Graph {
	byNode := tr.VisitsByNode()

	// Global visit ids are node-major, time-ascending: visits[n] is node
	// n's first id and edges[n] the slot of its first connection.
	// Consecutive same-landmark visits produce no connection (the node
	// never left; a packet at the landmark waits on its station either
	// way).
	visits := make([]int32, len(byNode)+1)
	edges := make([]int32, len(byNode)+1)
	for n, vs := range byNode {
		visits[n+1] = visits[n] + int32(len(vs))
		edges[n+1] = edges[n]
		for i := 1; i < len(vs); i++ {
			if vs[i-1].Landmark != vs[i].Landmark {
				edges[n+1]++
			}
		}
	}
	g := &Graph{
		L:      tr.NumLandmarks,
		conns:  make([]conn, edges[len(byNode)]),
		budget: make([]int32, visits[len(byNode)]),
	}

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, len(byNode)))
	var wg sync.WaitGroup
	next := make(chan int, len(byNode))
	for n := range byNode {
		next <- n
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range next {
				vs := byNode[n]
				base, k := visits[n], edges[n]
				for i, v := range vs {
					g.budget[base+int32(i)] = int32(visitBudget(v, cfg))
					if i == 0 || vs[i-1].Landmark == v.Landmark {
						continue
					}
					g.conns[k] = conn{
						depart: vs[i-1].End,
						arrive: v.Start,
						from:   int32(vs[i-1].Landmark),
						to:     int32(v.Landmark),
						depVis: base + int32(i-1),
						arrVis: base + int32(i),
					}
					k++
				}
			}
		}()
	}
	wg.Wait()

	slices.SortFunc(g.conns, func(a, b conn) int {
		return cmp.Or(cmp.Compare(a.depart, b.depart), cmp.Compare(a.arrive, b.arrive), cmp.Compare(a.depVis, b.depVis))
	})
	return g
}

// visitBudget is the engine's per-contact budget formula: the number of
// transfers a visit of this duration allows.
func visitBudget(v trace.Visit, cfg Config) int {
	b := int(cfg.LinkRate * float64(v.End-v.Start))
	if b < 1 {
		b = 1
	}
	if cfg.MaxContactTransfers > 0 && b > cfg.MaxContactTransfers {
		b = cfg.MaxContactTransfers
	}
	return b
}

// maxTime is past every trace timestamp.
const maxTime = trace.Time(1) << 62

// Fingerprint hashes the graph's full structure (the connection array
// and the visit budgets). Two builds of the same trace must produce
// equal fingerprints regardless of worker count — the determinism tests
// pin this.
func (g *Graph) Fingerprint() uint64 {
	h := fnv.New64a()
	buf := make([]byte, 0, 32)
	h.Write(binary.LittleEndian.AppendUint64(buf, uint64(g.L)))
	for _, b := range g.budget {
		h.Write(binary.LittleEndian.AppendUint32(buf, uint32(b)))
	}
	for _, c := range g.conns {
		b := binary.LittleEndian.AppendUint64(buf, uint64(c.depart))
		b = binary.LittleEndian.AppendUint64(b, uint64(c.arrive))
		b = binary.LittleEndian.AppendUint32(b, uint32(c.from))
		b = binary.LittleEndian.AppendUint32(b, uint32(c.to))
		b = binary.LittleEndian.AppendUint32(b, uint32(c.depVis))
		h.Write(binary.LittleEndian.AppendUint32(b, uint32(c.arrVis)))
	}
	return h.Sum64()
}

// first returns the index of the first connection departing at or
// after t.
func (g *Graph) first(t trace.Time) int {
	i, _ := slices.BinarySearchFunc(g.conns, t, func(c conn, t trace.Time) int { return cmp.Compare(c.depart, t) })
	return i
}

// search answers earliest-arrival queries over one graph for one
// goroutine. scan is the implementation; reference_test.go keeps the
// label-setting search it replaced behind the same interface, so the
// solve, the commit and the regret replay can run on either.
type search interface {
	// run labels landmarks from (src, t0) and returns dst's earliest
	// arrival strictly before deadline, or (0, false) when there is
	// none. While the labels' residual is set (committed mode), only
	// connections whose two visits both have residual budget qualify.
	run(src int, t0 trace.Time, dst int, deadline trace.Time) (trace.Time, bool)
	// hop is the earliest arrival at to over one direct connection from
	// from boardable at t.
	hop(from int, t trace.Time, to int) (trace.Time, bool)
	// tree is the label and parent state the last run left behind.
	tree() *labels
}

// labels is one search's per-landmark state: dist, parent and pconn
// describe the last query; residual persists across queries.
type labels struct {
	dist   []trace.Time // earliest arrival; maxTime where unlabelled
	parent []int32      // previous landmark on the best path; -1 at the source
	pconn  []int32      // index in Graph.conns of the connection into this landmark
	// residual holds the committed mode's remaining per-visit transfer
	// budgets; nil in relaxed searches.
	residual []int32
}

func newLabels(landmarks int) labels {
	return labels{
		dist:   make([]trace.Time, landmarks),
		parent: make([]int32, landmarks),
		pconn:  make([]int32, landmarks),
	}
}

func (l *labels) tree() *labels { return l }

// reset starts a new query labelled only at (src, t0).
func (l *labels) reset(src int, t0 trace.Time) {
	for i := range l.dist {
		l.dist[i] = maxTime
	}
	l.set(int32(src), t0, -1, -1)
}

func (l *labels) set(lm int32, t trace.Time, parent, conn int32) {
	l.dist[lm] = t
	l.parent[lm] = parent
	l.pconn[lm] = conn
}

// path reconstructs the landmark path src..dst of the last run (dst must
// have been labelled), appended to out.
func (l *labels) path(dst int, out []int) []int {
	n := 0
	for lm := int32(dst); lm >= 0; lm = l.parent[lm] {
		n++
	}
	base := len(out)
	out = append(out, make([]int, n)...)
	lm := int32(dst)
	for i := n - 1; i >= 0; i-- {
		out[base+i] = int(lm)
		lm = l.parent[lm]
	}
	return out
}

// scan is the Connection Scan Algorithm (Dibbelt, Pajor, Strasser and
// Wagner, JEA 2018) over the departure-sorted connections: waiting at a
// landmark is free, so one forward pass from t0 labels every landmark
// with its earliest arrival.
type scan struct {
	g *Graph
	labels
	pairs map[[2]int32][]int32 // hop's index: connections per (from, to), in array order
}

func newScan(g *Graph) search { return &scan{g: g, labels: newLabels(g.L)} }

// run scans from the first connection departing at t0 and stops at the
// first one departing at or after min(dst's label, deadline): it can
// only arrive later still. A connection is usable when its departure
// landmark is labelled by its departure time and it arrives strictly
// before deadline; only one arriving no later than its arrival
// landmark's label can change that landmark's label or parent.
func (s *scan) run(src int, t0 trace.Time, dst int, deadline trace.Time) (trace.Time, bool) {
	s.reset(src, t0)
	if src == dst {
		return t0, true
	}
	cs := s.g.conns
	stop := deadline
	for i := s.g.first(t0); i < len(cs) && cs[i].depart < stop; i++ {
		switch c := &cs[i]; {
		case c.arrive == c.depart:
			i = s.instant(i) - 1
			stop = min(stop, s.dist[dst])
		case s.dist[c.from] <= c.depart && c.arrive < deadline && c.arrive <= s.dist[c.to] &&
			s.relax(i) && int(c.to) == dst:
			stop = c.arrive
		}
	}
	if s.dist[dst] == maxTime {
		return 0, false
	}
	return s.dist[dst], true
}

// instant relaxes the zero-duration connections starting at index i,
// every one at instant d = cs[i].depart (they lead the instant, as
// arrive is the second sort key), and returns the end of that block.
// They can chain within the instant in any array order, so the block
// repeats until it lowers no label. run only reaches an instant before
// its stop, so d is before the deadline.
func (s *scan) instant(i int) int {
	cs := s.g.conns
	d := cs[i].depart
	j := i + 1
	for j < len(cs) && cs[j].depart == d && cs[j].arrive == d {
		j++
	}
	for changed := true; changed; {
		changed = false
		for k := i; k < j; k++ {
			if s.dist[cs[k].from] <= d && s.relax(k) {
				changed = true
			}
		}
	}
	return j
}

// relax offers usable connection k to its arrival landmark and reports
// whether it lowered that landmark's label. In committed mode both of
// its visits need residual budget. On an equal arrival the parent with
// the strictly smaller (label, landmark) wins — the order a
// label-setting search settles landmarks in — so for the same parent
// the first connection stays, the lowest in the array order. A tie
// never goes to a parent labelled at the arrival instant itself: on a
// zero-duration connection that parent may descend from the landmark it
// would adopt, and the tree would close a cycle. On every other
// connection the parent is labelled by its departure, strictly earlier.
func (s *scan) relax(k int) bool {
	c := &s.g.conns[k]
	if s.residual != nil && (s.residual[c.depVis] < 1 || s.residual[c.arrVis] < 1) {
		return false
	}
	u, v := c.from, c.to
	if c.arrive < s.dist[v] {
		s.set(v, c.arrive, u, int32(k))
		return true
	}
	if p := s.parent[v]; c.arrive == s.dist[v] && p >= 0 && s.dist[u] < c.arrive &&
		(s.dist[u] < s.dist[p] || s.dist[u] == s.dist[p] && u < p) {
		s.parent[v], s.pconn[v] = u, int32(k)
	}
	return false
}

// hop reads the from -> to connections departing at or after t from a
// per-pair index of the connection array, built on first use (only the
// regret replay asks), and stops at the first departing at or after the
// best arrival found so far.
func (s *scan) hop(from int, t trace.Time, to int) (trace.Time, bool) {
	cs := s.g.conns
	if s.pairs == nil {
		s.pairs = make(map[[2]int32][]int32)
		for k, c := range cs {
			pair := [2]int32{c.from, c.to}
			s.pairs[pair] = append(s.pairs[pair], int32(k))
		}
	}
	idx := s.pairs[[2]int32{int32(from), int32(to)}]
	i, _ := slices.BinarySearchFunc(idx, t, func(k int32, t trace.Time) int { return cmp.Compare(cs[k].depart, t) })
	best := maxTime
	for ; i < len(idx) && cs[idx[i]].depart < best; i++ {
		best = min(best, cs[idx[i]].arrive)
	}
	return best, best < maxTime
}
