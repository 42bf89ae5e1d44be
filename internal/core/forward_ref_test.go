package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// forwardPassReference is the cross-check for forwardPass: the
// straightforward implementation of IV-D.5 that routes every station
// packet, sorts all candidates under cmpCand and tries each in turn. It
// is kept only so TestForwardPassMatchesReference can require the
// production pass (route memo, per-target heaps, target retirement) to
// make exactly the same transfers in exactly the same order.
func (r *Router) forwardPassReference(ctx *sim.Context, lm int, c *sim.Contact) int {
	st := ctx.Stations[lm]
	if st.Buffer.Len() == 0 {
		return 0
	}
	present := ctx.NodesAt(lm)
	if len(present) == 0 {
		return 0
	}
	ls := r.landmarks[lm]
	now := ctx.Now()

	r.reachEpoch++
	epoch := r.reachEpoch
	var targets []int
	for _, n := range present {
		ns := r.nodes[n.ID]
		if ns.predicted < 0 {
			continue
		}
		r.directStamp[ns.predicted] = epoch
		if ns.deadEnded {
			continue
		}
		t := ns.predicted
		if r.reachStamp[t] != epoch {
			r.reachStamp[t] = epoch
			r.carrierBkt[t] = r.carrierBkt[t][:0]
			targets = append(targets, t)
		}
		if pt := ns.predProb; pt > 0 {
			po := pt
			if r.cfg.UseAccuracy {
				po *= ns.accVal
			}
			r.carrierBkt[t] = append(r.carrierBkt[t], carrierEnt{n: n, po: po})
		}
	}
	if len(targets) == 0 {
		return 0
	}
	for _, t := range targets {
		slices.SortFunc(r.carrierBkt[t], cmpCarrier)
	}

	pkts := append([]*sim.Packet(nil), st.Buffer.Packets()...)
	var cands []cand
	for _, p := range pkts {
		if p.Dst == lm {
			continue
		}
		target, exp := r.route(ctx, lm, p, epoch)
		if target < 0 {
			r.Debug.NoRoute++
			continue
		}
		if r.reachStamp[target] != epoch {
			r.Debug.NoCarrier++
			continue
		}
		cands = append(cands, cand{p: p, target: target, exp: exp, feasible: exp < float64(p.Remaining(now))})
	}
	slices.SortFunc(cands, cmpCand)
	sent := 0
	for _, cd := range cands {
		carrier := pickCarrier(r.carrierBkt[cd.target], cd.p.Size)
		if carrier == nil {
			r.Debug.NoCarrier++
			continue
		}
		var cc *sim.Contact
		if c != nil && carrier == c.Node {
			cc = c
		}
		if !ctx.Download(cc, st, carrier, cd.p) {
			continue
		}
		ctx.Probe.Assigned(now, cd.p.ID, lm, cd.target)
		if ctx.Probe.Enabled() {
			r.emitDecision(ctx, lm, now, cd, targets)
		}
		cd.p.NextHop = cd.target
		cd.p.ExpDelay = cd.exp
		ls.lbSent[cd.target]++
		sent++
		r.Debug.Forwarded++
		if cd.target == cd.p.Dst {
			r.Debug.DirectDeliv++
		}
	}
	return sent
}

// passLog records the transfers and drops of the forwarding passes under
// test; outside a pass (recording off) it ignores every hook.
type passLog struct {
	recording bool
	events    []string
}

func (l *passLog) Generated(trace.Time, *sim.Packet) {}
func (l *passLog) Transferred(now trace.Time, hop telemetry.HopKind, p *sim.Packet, from, to int) {
	if l.recording {
		l.events = append(l.events, fmt.Sprintf("t%d hop%d pkt%d %d->%d", now, hop, p.ID, from, to))
	}
}
func (l *passLog) Delivered(trace.Time, *sim.Packet, int) {}
func (l *passLog) Dropped(now trace.Time, p *sim.Packet, reason metrics.DropReason) {
	if l.recording {
		l.events = append(l.events, fmt.Sprintf("t%d drop pkt%d %v", now, p.ID, reason))
	}
}
func (l *passLog) Score(trace.Time, string, int, int, float64) {}
func (l *passLog) Table(trace.Time, int, *routing.Table)       {}
func (l *passLog) Scan(trace.Time, *sim.Context)               {}
func (l *passLog) Finish(*sim.Context)                         {}

// passOutcome is everything a sequence of forwarding passes can change.
type passOutcome struct {
	Events  []string
	Sent    []int
	Budgets []int
	Debug   string
	LBSent  []float64
	Packets []string // ID, NextHop, ExpDelay and holder of every station packet
}

// runPassScenario builds a one-landmark-hub engine whose every node sits
// at landmark 0, randomizes the router and buffer state from seed at a
// fixed instant, and runs three forwarding passes with pass (the
// production forwardPass or the reference), reporting what they did.
// Both implementations see identically built engines because every
// random choice derives from seed alone.
func runPassScenario(t *testing.T, seed int64, pass func(*Router, *sim.Context, int, *sim.Contact) int) passOutcome {
	t.Helper()
	const (
		nodes     = 10
		landmarks = 7
		at        = trace.Time(100)
	)
	tr := &trace.Trace{Name: "HUB", NumNodes: nodes, NumLandmarks: landmarks}
	for n := 0; n < nodes; n++ {
		tr.Visits = append(tr.Visits, trace.Visit{Node: n, Landmark: 0, Start: trace.Time(n), End: 10000})
	}
	tr.SortVisits()
	rng := rand.New(rand.NewSource(seed))
	cfg := DefaultConfig()
	cfg.LoadBalance = rng.Intn(4) != 0
	cfg.DirectDelivery = rng.Intn(4) != 0
	cfg.UseAccuracy = rng.Intn(2) == 0
	cfg.Theta = 2
	r := New(cfg)
	log := &passLog{}
	scfg := sim.Config{Seed: 1, PacketSize: 1, NodeMemory: 12, TTL: 1 << 30, Unit: 1 << 30, LinkRate: 10, Check: log}
	eng := sim.New(tr, r, nil, scfg)
	ctx := eng.Context()
	var out passOutcome
	ctx.Schedule(at, func() {
		present := ctx.NodesAt(0)
		if len(present) != nodes {
			t.Fatalf("%d nodes present, want %d", len(present), nodes)
		}
		// Routing table at landmark 0: random links, and random neighbor
		// vectors so most destinations have a backup route.
		ls := r.landmarks[0]
		for nbr := 1; nbr < landmarks; nbr++ {
			if rng.Intn(5) != 0 {
				ls.table.SetLinkDelay(nbr, float64(1+rng.Intn(40)))
			}
		}
		for nbr := 1; nbr < landmarks; nbr++ {
			vec := make([]float64, landmarks)
			for d := range vec {
				vec[d] = routing.Infinite
				if d == nbr {
					vec[d] = 0
				} else if rng.Intn(3) != 0 {
					vec[d] = float64(rng.Intn(200))
				}
			}
			ls.table.MergeVector(nbr, vec, 1)
		}
		// Load-balancing state: some links overloaded (their packets take
		// the backup), some with overloaded backups too.
		for nbr := 1; nbr < landmarks; nbr++ {
			ls.lbAssigned[nbr] = float64(rng.Intn(20))
			ls.lbSent[nbr] = float64(rng.Intn(6))
			ls.lbInRate[nbr] = float64(rng.Intn(4))
			ls.lbOutRate[nbr] = float64(rng.Intn(3))
		}
		// Node predictions and near-full carrier buffers (capacity 12,
		// packets of size 1-4).
		id := 1 << 20
		for _, n := range present {
			ns := r.nodes[n.ID]
			ns.predicted = rng.Intn(landmarks+1) - 1
			ns.predProb = 0
			if rng.Intn(6) != 0 {
				ns.predProb = float64(1+rng.Intn(4)) / 4
			}
			ns.accVal = float64(1+rng.Intn(2)) / 2
			ns.deadEnded = rng.Intn(8) == 0
			for fill := rng.Intn(13); fill > 0; {
				sz := int64(min(fill, 1+rng.Intn(4)))
				n.Buffer.Add(&sim.Packet{ID: id, Src: 0, Dst: 1, DstNode: -1, Size: sz, Expiry: 1 << 30, NextHop: -1})
				id++
				fill -= int(sz)
			}
		}
		// Station queue: mixed sizes and destinations (including the
		// station itself), some packets already expired.
		st := ctx.Stations[0]
		var queued []*sim.Packet
		for i, q := 0, rng.Intn(60); i < q; i++ {
			p := &sim.Packet{
				ID: i, Src: 0, Dst: rng.Intn(landmarks), DstNode: -1,
				Size:    int64(1 + rng.Intn(4)),
				Created: 0, Expiry: at + trace.Time(rng.Intn(400)) - 20,
				NextHop: -1, ExpDelay: routing.Infinite,
			}
			st.Buffer.Add(p)
			queued = append(queued, p)
		}
		for k := 0; k < 3; k++ {
			// Contact: none, or one present node with a budget of 0, 1 or
			// many transfers.
			var c *sim.Contact
			if rng.Intn(3) != 0 {
				budgets := []int{0, 1, 1000}
				c = &sim.Contact{Node: present[rng.Intn(nodes)], Landmark: 0, Budget: budgets[rng.Intn(3)]}
			}
			log.recording = true
			out.Sent = append(out.Sent, pass(r, ctx, 0, c))
			log.recording = false
			if c != nil {
				out.Budgets = append(out.Budgets, c.Budget)
			}
			// Shift a few predictions between passes so the next pass
			// sees different buckets.
			for _, n := range present {
				if rng.Intn(3) == 0 {
					r.nodes[n.ID].predicted = rng.Intn(landmarks)
				}
			}
		}
		out.Debug = fmt.Sprintf("%+v", r.Debug)
		out.LBSent = append([]float64(nil), ls.lbSent...)
		for _, p := range queued {
			holder := "station"
			if p.Done() {
				holder = "done"
			} else if !slices.Contains(st.Buffer.Packets(), p) {
				holder = "node"
			}
			out.Packets = append(out.Packets, fmt.Sprintf("%d %d %v %s", p.ID, p.NextHop, p.ExpDelay, holder))
		}
	})
	eng.Run()
	out.Events = log.events
	return out
}

// TestForwardPassMatchesReference drives randomized station queues through
// the production pass and the reference on identically built engines and
// requires identical transfers, drops, counters, packet annotations,
// load-balancing tallies and sent counts.
func TestForwardPassMatchesReference(t *testing.T) {
	trials := 400
	if testing.Short() {
		trials = 100
	}
	fast := func(r *Router, ctx *sim.Context, lm int, c *sim.Contact) int { return r.forwardPass(ctx, lm, c) }
	ref := func(r *Router, ctx *sim.Context, lm int, c *sim.Contact) int {
		return r.forwardPassReference(ctx, lm, c)
	}
	sent, drops := 0, 0
	for seed := int64(1); seed <= int64(trials); seed++ {
		got := runPassScenario(t, seed, fast)
		want := runPassScenario(t, seed, ref)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: forwardPass differs from the reference\n got: %+v\nwant: %+v", seed, got, want)
		}
		for _, s := range got.Sent {
			sent += s
		}
		for _, e := range got.Events {
			if strings.Contains(e, "drop") {
				drops++
			}
		}
	}
	if sent == 0 || drops == 0 {
		t.Fatalf("trials sent %d packets and dropped %d; the scenarios exercise too little", sent, drops)
	}
}
