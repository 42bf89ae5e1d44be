package core

import (
	"math"
	"slices"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file implements the packet forwarding algorithm of Section IV-D:
// upload eligibility (steps 1 and 5, plus the prediction-inaccuracy rule of
// IV-D.1), the landmark's forwarding decision (steps 2–4: direct delivery,
// routing-table lookup, carrier selection by overall transit probability),
// and the uplink/downlink communication scheduling of IV-D.5.
//
// The hot path is data-oriented: one pass over the presence set builds
// per-target carrier buckets (so carrier selection is a bucket walk, not a
// rescan of every present node per packet), the candidate order is merged
// lazily from per-target heaps and the eligibility order is sorted, both
// over dense scratch slices (every comparator is a strict total order —
// packet and node IDs break all ties — so neither the sort nor the merge
// can influence the result), and the upload/forward scheduler tracks
// buffer populations incrementally.

// uploadEligible decides whether node state ns should hand packet p to the
// station of landmark lm (step 5): the packet targets lm, lm is the
// packet's assigned next hop, or lm reduces the expected delay to the
// destination below the value recorded in the packet. A declared dead end
// makes everything eligible (Section IV-E.1), and disabling HoldOnWorse
// uploads unconditionally.
func (r *Router) uploadEligible(ns *nodeState, p *sim.Packet, lm int) bool {
	if p.Dst == lm || p.NextHop == lm || ns.deadEnded || !r.cfg.HoldOnWorse {
		return true
	}
	// Require a meaningful reduction (10%) so marginal estimate noise does
	// not bounce the packet between stations and carriers.
	return r.landmarks[lm].table.Delay(p.Dst) < 0.9*p.ExpDelay
}

// stationReceive runs when a packet lands in a station's buffer: it stamps
// the landmark path, triggers loop detection (Section IV-E.2) and records
// the packet against its assigned outgoing link for load balancing.
func (r *Router) stationReceive(ctx *sim.Context, lm int, p *sim.Packet) {
	if p.Path == nil {
		p.Path = make([]int, 0, 8) // skip the tiny append-growth steps
	}
	p.Path = append(p.Path, lm)
	if r.cfg.LoopFix {
		if members, ok := routing.DetectLoop(p.Path); ok {
			r.startCorrection(ctx, lm, p.Dst, members)
		}
	}
	r.recordAssignment(r.landmarks[lm], p)
}

// recordAssignment counts the packet toward the incoming rate of the link
// its current route would use (Section IV-E.3).
func (r *Router) recordAssignment(ls *landmarkState, p *sim.Packet) {
	if e, ok := ls.table.Lookup(p.Dst); ok {
		ls.lbAssigned[e.Next]++
	}
}

// overloaded reports whether landmark state ls considers its outgoing link
// to next overloaded: the incoming rate exceeds Theta times the outgoing
// rate and there is material traffic (Section IV-E.3).
func (r *Router) overloaded(ls *landmarkState, next int) bool {
	in := ls.lbInRate[next] + ls.lbAssigned[next]
	out := ls.lbOutRate[next] + ls.lbSent[next]
	return in > 4 && in > r.cfg.Theta*out
}

// route decides the forwarding target for packet p held at landmark lm:
// the destination itself when direct delivery applies, otherwise the
// routing-table next hop (or its backup when the primary link is
// overloaded). It returns target -1 when the packet cannot be routed yet.
// epoch is the forwarding pass that populated directStamp (0 = no presence
// information, so direct delivery never applies).
func (r *Router) route(ctx *sim.Context, lm int, p *sim.Packet, epoch int) (target int, exp float64) {
	ls := r.landmarks[lm]
	if r.cfg.DirectDelivery && p.Dst != lm && epoch > 0 && r.directStamp[p.Dst] == epoch {
		// Some present node is predicted to transit to the destination.
		exp = ls.table.Delay(p.Dst)
		if exp >= routing.Infinite {
			// No table route yet; a single predicted transit is
			// expected to take about one time unit.
			exp = float64(ctx.Cfg.Unit)
		}
		return p.Dst, exp
	}
	e, ok := ls.table.Lookup(p.Dst)
	if !ok {
		return -1, routing.Infinite
	}
	if r.cfg.LoadBalance && e.Backup >= 0 && r.overloaded(ls, e.Next) && !r.overloaded(ls, e.Backup) {
		return e.Backup, e.BackupDelay
	}
	return e.Next, e.Delay
}

// carrierEnt is one candidate carrier in a per-target bucket: a present
// node predicted to transit to the bucket's target, with its overall
// transit probability p_o = p_t · p_a (constant for the duration of a
// forwarding pass — predictions, accuracy and dead-end state only change
// on contact and timer events, never inside a pass).
type carrierEnt struct {
	n  *sim.Node
	po float64
}

// cmpCarrier orders a bucket by overall transit probability descending,
// node ID ascending. The first entry that fits a packet is exactly the
// carrier a max-scan over the ID-ordered presence set with a strict
// greater-than would pick: highest p_o, ties to the lower node ID.
func cmpCarrier(a, b carrierEnt) int {
	if a.po != b.po {
		if a.po > b.po {
			return -1
		}
		return 1
	}
	return a.n.ID - b.n.ID
}

// pickCarrier returns the first carrier in the target's bucket that can
// store a packet of the given size, or nil. Only nodes whose predicted next
// landmark is the target qualify (the bucket build enforces this): handing
// packets to nodes with merely nonzero transit probability strands them on
// carriers that almost surely go elsewhere, while a waiting station sees
// every future visitor.
func pickCarrier(bkt []carrierEnt, size int64) *sim.Node {
	for i := range bkt {
		if bkt[i].n.Buffer.Fits(size) {
			return bkt[i].n
		}
	}
	return nil
}

// cand is one forwarding candidate of a forwardPass.
type cand struct {
	p        *sim.Packet
	target   int
	exp      float64
	feasible bool
}

// cmpCand orders candidates feasible-first, then by minimal remaining TTL,
// then by packet ID (IV-D.5). Packet IDs are unique, so this is a strict
// total order: the global sequence is the same whether it comes from one
// sort or from merging per-target heaps.
func cmpCand(a, b cand) int {
	if a.feasible != b.feasible {
		if a.feasible {
			return -1
		}
		return 1
	}
	if a.p.Expiry != b.p.Expiry {
		if a.p.Expiry < b.p.Expiry {
			return -1
		}
		return 1
	}
	return a.p.ID - b.p.ID
}

// candSeg is one reachable target's segment of the pass's candidate
// slice: cands[lo:hi] is a min-heap under cmpCand once the pass has
// partitioned and heapified it (during the routing scan hi counts the
// target's candidates, and next is the partition's write cursor). free is
// the largest free space of any carrier in the target's bucket at the
// start of the pass (-1 when the bucket is empty), minSize the smallest
// candidate packet in the segment.
type candSeg struct {
	lo, hi, next int
	free         int64
	minSize      int64
}

// routeMemo is one destination's routing answer for the forwarding pass
// whose epoch it is stamped with.
type routeMemo struct {
	stamp  int
	target int // route's target; -1 when the packet cannot be routed yet
	seg    int // the target's index in the pass's segments; -1 when unreachable
	exp    float64
}

// siftDown restores the min-heap property of h below index i.
func siftDown(h []cand, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && cmpCand(h[r], h[l]) < 0 {
			m = r
		}
		if cmpCand(h[m], h[i]) >= 0 {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// forwardPass forwards as many station packets as possible from landmark
// lm to connected carriers, honouring the scheduling priority of IV-D.5:
// packets whose expected delay fits their remaining TTL go first, ordered
// by minimal remaining TTL. c is the active contact whose budget applies
// to transfers involving its node (nil outside a contact). It returns the
// number of packets handed to carriers. All intermediate state lives in
// router-owned scratch buffers, so a pass over an uncongested station
// allocates nothing.
//
// A pass costs one scan of the station queue plus work proportional to
// the candidates that can still reach a carrier, and every Download runs
// in the order a full sort under cmpCand would give (DESIGN.md "Batch
// forwarding" explains why).
func (r *Router) forwardPass(ctx *sim.Context, lm int, c *sim.Contact) int {
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

	// One pass over the presence set classifies every present node:
	// directStamp marks destinations some node is predicted to transit to
	// (the direct-delivery test of step 2 becomes O(1) per packet),
	// reachStamp marks targets that can receive packets this pass, and the
	// per-target buckets hold the qualifying carriers with their overall
	// transit probability precomputed. Stamp arrays replace per-pass maps:
	// stamp[t] == reachEpoch marks t live this pass, and a bucket (or
	// segOf entry) is only ever read when its target's stamp is live, so
	// stale entries need no clearing.
	r.reachEpoch++
	epoch := r.reachEpoch
	targets := r.targetScratch[:0]
	for _, n := range present {
		ns := r.nodes[n.ID]
		if ns.predicted < 0 {
			continue
		}
		r.directStamp[ns.predicted] = epoch
		if ns.deadEnded {
			// A node that declared a dead end is stuck; handing packets
			// back to it would undo the prevention.
			continue
		}
		t := ns.predicted
		if r.reachStamp[t] != epoch {
			r.reachStamp[t] = epoch
			r.carrierBkt[t] = r.carrierBkt[t][:0]
			r.segOf[t] = len(targets)
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
	r.targetScratch = targets
	if len(targets) == 0 {
		return 0
	}
	segs := r.segScratch[:0]
	for _, t := range targets {
		bkt := r.carrierBkt[t]
		if len(bkt) > 1 {
			slices.SortFunc(bkt, cmpCarrier)
		}
		free := int64(-1)
		for i := range bkt {
			free = max(free, bkt[i].n.Buffer.Free())
		}
		segs = append(segs, candSeg{free: free, minSize: math.MaxInt64})
	}
	r.segScratch = segs

	// Route every packet, counting each target's candidates. Within the
	// scan, route reads only p.Dst of the packet and state no transfer has
	// touched yet (the table, directStamp, the load-balancing rates), so
	// its answer is memoized per destination. A candidate larger than
	// every carrier's free space can never be sent (carrier buffers only
	// fill during a pass) and is counted off at once. Nothing here
	// mutates the station buffer, so its packet slice is read in place.
	cands := r.cands[:0]
	for _, p := range st.Buffer.Packets() {
		if p.Dst == lm {
			continue // node-destined packet waiting at its rendezvous
		}
		m := &r.routeMemo[p.Dst]
		if m.stamp != epoch {
			m.stamp = epoch
			m.target, m.exp = r.route(ctx, lm, p, epoch)
			m.seg = -1
			if m.target >= 0 && r.reachStamp[m.target] == epoch {
				m.seg = r.segOf[m.target]
			}
		}
		if m.target < 0 {
			r.Debug.NoRoute++
			continue
		}
		if m.seg < 0 || p.Size > segs[m.seg].free {
			r.Debug.NoCarrier++
			continue
		}
		sg := &segs[m.seg]
		sg.hi++
		sg.minSize = min(sg.minSize, p.Size)
		cands = append(cands, cand{p: p, target: m.target, exp: m.exp, feasible: m.exp < float64(p.Remaining(now))})
	}
	r.cands = cands
	if len(cands) == 0 {
		return 0
	}

	// Partition cands into per-target segments in place (one cycle-leader
	// pass: each swap puts one candidate into its final segment), then
	// heapify each segment.
	off := 0
	for i := range segs {
		n := segs[i].hi
		segs[i].lo, segs[i].next, segs[i].hi = off, off, off+n
		off += n
	}
	for i := range segs {
		s := &segs[i]
		for s.next < s.hi {
			cd := cands[s.next]
			j := r.segOf[cd.target]
			if j == i {
				s.next++
				continue
			}
			d := &segs[j]
			cands[s.next], cands[d.next] = cands[d.next], cd
			d.next++
		}
	}
	live := segs[:0]
	for _, s := range segs {
		if s.hi == s.lo {
			continue
		}
		h := cands[s.lo:s.hi]
		for i := len(h)/2 - 1; i >= 0; i-- {
			siftDown(h, i)
		}
		live = append(live, s)
	}

	// Merge: take the cmpCand-minimum head across live targets. Targets
	// never share a carrier (each node sits in its predicted target's
	// bucket only), and carrier buffers only fill, so once no carrier of a
	// target fits its smallest candidate, all its remaining candidates
	// would fail carrier selection: the target retires with them.
	sent := 0
	for len(live) > 0 {
		b := 0
		for i := 1; i < len(live); i++ {
			if cmpCand(cands[live[i].lo], cands[live[b].lo]) < 0 {
				b = i
			}
		}
		s := &live[b]
		cd := cands[s.lo]
		s.hi--
		cands[s.lo] = cands[s.hi]
		siftDown(cands[s.lo:s.hi], 0)
		bkt := r.carrierBkt[cd.target]
		if carrier := pickCarrier(bkt, cd.p.Size); carrier == nil {
			r.Debug.NoCarrier++
			if pickCarrier(bkt, s.minSize) == nil {
				r.Debug.NoCarrier += int64(s.hi - s.lo)
				s.hi = s.lo
			}
		} else {
			var cc *sim.Contact
			if c != nil && carrier == c.Node {
				cc = c
			}
			if ctx.Download(cc, st, carrier, cd.p) {
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
		}
		if s.hi == s.lo {
			live[b] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	return sent
}

// emitDecision records the committed forwarding decision as a ranked
// telemetry trace: the chosen next hop (rank 0, with the router's own
// expected-delay estimate) plus up to two reachable alternatives ranked
// by their estimated delay through that hop (link delay to the hop plus
// the hop's advertised delay to the destination). Only called when the
// probe is enabled, so the estimate arithmetic never runs on the
// disabled path. dtnflow-inspect -regret joins these against the
// offline oracle.
func (r *Router) emitDecision(ctx *sim.Context, lm int, now trace.Time, cd cand, targets []int) {
	ctx.Probe.Decision(now, cd.p.ID, lm, cd.target, 0, cd.exp)
	ls := r.landmarks[lm]
	// Best two alternatives among the other reachable targets this pass.
	a1, a2 := -1, -1
	var e1, e2 float64
	for _, t := range targets {
		if t == cd.target {
			continue
		}
		est := ls.table.LinkDelay(t)
		if t != cd.p.Dst {
			d := r.landmarks[t].table.Delay(cd.p.Dst)
			if d >= routing.Infinite {
				continue
			}
			est += d
		}
		switch {
		case a1 < 0 || est < e1:
			a2, e2 = a1, e1
			a1, e1 = t, est
		case a2 < 0 || est < e2:
			a2, e2 = t, est
		}
	}
	if a1 >= 0 {
		ctx.Probe.Decision(now, cd.p.ID, lm, a1, 1, e1)
	}
	if a2 >= 0 {
		ctx.Probe.Decision(now, cd.p.ID, lm, a2, 2, e2)
	}
}

// elig is one upload-eligible packet with its feasibility (recorded
// expected delay fits the remaining TTL) precomputed, so the sort
// comparator does no arithmetic.
type elig struct {
	p        *sim.Packet
	feasible bool
}

// cmpElig orders upload-eligible packets feasible-first, then by minimal
// remaining TTL, then by packet ID (IV-D.5 step 3) — a strict total order,
// like cmpCand.
func cmpElig(a, b elig) int {
	if a.feasible != b.feasible {
		if a.feasible {
			return -1
		}
		return 1
	}
	if a.p.Expiry != b.p.Expiry {
		if a.p.Expiry < b.p.Expiry {
			return -1
		}
		return 1
	}
	return a.p.ID - b.p.ID
}

// uploadBatch uploads up to NMax eligible packets from the contact's node,
// prioritising packets whose expected delay fits their remaining TTL, then
// minimal remaining TTL (IV-D.5 step 3). It returns the number uploaded.
func (r *Router) uploadBatch(ctx *sim.Context, c *sim.Contact) int {
	n := c.Node
	ns := r.nodes[n.ID]
	lm := c.Landmark
	now := ctx.Now()
	el := r.eligScratch[:0]
	for _, p := range n.Buffer.Packets() {
		if r.uploadEligible(ns, p, lm) {
			el = append(el, elig{p: p, feasible: p.ExpDelay < float64(p.Remaining(now))})
		}
	}
	r.eligScratch = el
	slices.SortFunc(el, cmpElig)
	max := r.cfg.NMax
	if max <= 0 {
		max = len(el)
	}
	up := 0
	for _, e := range el {
		if up >= max {
			break
		}
		if !ctx.Upload(c, n, e.p) {
			if c.Budget <= 0 {
				break
			}
			continue
		}
		up++
		if !e.p.Done() {
			r.stationReceive(ctx, lm, e.p)
		}
	}
	return up
}

// schedule runs the communication scheduling of Section IV-D.5 for one
// contact: the station alternates between uploading (collecting packets
// from the arriving node) and forwarding (handing packets to carriers),
// switching modes on the ratio R of station packets to node packets. The
// node-side population nn is maintained incrementally: an upload batch
// only ever drains the contact node's buffer (its length delta is exact,
// including expiry drops), and a forwarding pass adds exactly its sent
// count to present carriers (Download reports true only when the packet
// lands in the carrier's buffer). The presence set cannot change inside
// the loop — arrivals and departures are events, and events do not nest.
func (r *Router) schedule(ctx *sim.Context, c *sim.Contact) {
	lm := c.Landmark
	st := ctx.Stations[lm]
	if st.Buffer.Len() == 0 && c.Node.Buffer.Len() == 0 {
		// Uploads drain only the contact node and forwarding drains only
		// the station; with both empty no transfer can ever start, so the
		// presence scan below (the cost on the vast majority of contacts)
		// is skipped outright.
		return
	}
	nn := 0
	for _, n := range ctx.NodesAt(lm) {
		nn += n.Buffer.Len()
	}
	mode := "upload"
	for c.Budget > 0 {
		nl := st.Buffer.Len()
		switch {
		case nn == 0 && nl == 0:
			return
		case nn == 0:
			mode = "forward"
		default:
			ratio := float64(nl) / float64(nn)
			if ratio >= r.cfg.RUp {
				mode = "forward"
			} else if ratio <= r.cfg.RDown {
				mode = "upload"
			}
		}
		progressed := false
		if mode == "upload" {
			before := c.Node.Buffer.Len()
			progressed = r.uploadBatch(ctx, c) > 0
			nn -= before - c.Node.Buffer.Len()
			if !progressed {
				mode = "forward"
				sent := r.forwardPass(ctx, lm, c)
				nn += sent
				progressed = sent > 0
			}
		} else {
			sent := r.forwardPass(ctx, lm, c)
			nn += sent
			progressed = sent > 0
			if !progressed {
				mode = "upload"
				before := c.Node.Buffer.Len()
				progressed = r.uploadBatch(ctx, c) > 0
				nn -= before - c.Node.Buffer.Len()
			}
		}
		if !progressed {
			return
		}
	}
}
