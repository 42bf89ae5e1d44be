package telemetry

import (
	"slices"
	"sort"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// This file reconstructs per-packet lifecycles from a recorded event
// stream and derives the run-inspector views: per-landmark flow
// matrices, hop-count and delay histograms, and the most heavily used
// transit links. All analyses work on a Log, whether loaded from a JSONL
// file or snapshotted from a live recorder.

// PacketStatus is a packet's terminal state in the recording.
type PacketStatus uint8

// Packet terminal states.
const (
	StatusInFlight PacketStatus = iota // no terminal event recorded
	StatusDelivered
	StatusDropped
)

// String names the status.
func (s PacketStatus) String() string {
	switch s {
	case StatusDelivered:
		return "delivered"
	case StatusDropped:
		return "dropped"
	default:
		return "in-flight"
	}
}

// PacketTrace is one packet's reconstructed lifecycle.
type PacketTrace struct {
	ID       int
	Src, Dst int
	Created  trace.Time
	Finished trace.Time // delivery/drop time (0 while in flight)
	// Stations is the landmark path: the source, every landmark whose
	// station held the packet, and the delivery landmark.
	Stations []int
	Hops     int // forwarding operations (uploads + downloads + relays)
	Status   PacketStatus
	Reason   metrics.DropReason // valid when Status == StatusDropped
	Delay    trace.Time         // end-to-end (valid when delivered)
}

// Packets reconstructs every packet seen in the log, sorted by ID.
// Packets whose generation fell out of a wrapped ring still appear, with
// the path reconstructed from their remaining events.
func (l *Log) Packets() []*PacketTrace {
	byID := make(map[int]*PacketTrace)
	get := func(id int) *PacketTrace {
		pt := byID[id]
		if pt == nil {
			pt = &PacketTrace{ID: id, Src: -1, Dst: -1}
			byID[id] = pt
		}
		return pt
	}
	for _, ev := range l.Events {
		if ev.Pkt < 0 {
			continue
		}
		pt := get(int(ev.Pkt))
		switch ev.Kind {
		case EvGenerated:
			pt.Src, pt.Dst = int(ev.A), int(ev.B)
			pt.Created = ev.T
			pt.Stations = append(pt.Stations, int(ev.A))
		case EvForwarded:
			pt.Hops++
			if ev.Hop == HopUpload {
				pt.appendStation(int(ev.B))
			}
		case EvDelivered:
			pt.Status = StatusDelivered
			pt.Finished = ev.T
			pt.Delay = trace.Time(ev.V)
			pt.appendStation(int(ev.A))
		case EvDropped:
			pt.Status = StatusDropped
			pt.Finished = ev.T
			pt.Reason = metrics.DropReason(ev.Aux)
		}
	}
	out := make([]*PacketTrace, 0, len(byID))
	for _, pt := range byID {
		out = append(out, pt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (pt *PacketTrace) appendStation(lm int) {
	if n := len(pt.Stations); n > 0 && pt.Stations[n-1] == lm {
		return
	}
	pt.Stations = append(pt.Stations, lm)
}

// Packet reconstructs a single packet's lifecycle, reporting whether the
// log holds any event for it.
func (l *Log) Packet(id int) (*PacketTrace, bool) {
	for _, pt := range l.Packets() {
		if pt.ID == id {
			return pt, true
		}
	}
	return nil, false
}

// numLandmarks returns the landmark count: the meta's when present,
// otherwise one past the largest landmark index observed in station
// paths.
func (l *Log) numLandmarks(pkts []*PacketTrace) int {
	if l.Meta.Landmarks > 0 {
		return l.Meta.Landmarks
	}
	max := -1
	for _, pt := range pkts {
		for _, lm := range pt.Stations {
			if lm > max {
				max = lm
			}
		}
	}
	return max + 1
}

// FlowMatrix returns the landmark flow matrix in sparse form: links
// holds every directed link some packet's station path traversed, with
// its traversal count, sorted by (From, To), and lms lists the landmarks
// those links name, ascending — the matrix's rows and columns. Both grow
// with the recording's events, never with the header's landmark count or
// the largest index a header-less recording mentions, so a caller
// renders the dense matrix row by row.
func (l *Log) FlowMatrix() (lms []int, links []Link) {
	pkts := l.Packets()
	links = traversed(pkts, l.numLandmarks(pkts))
	sort.Slice(links, func(a, b int) bool {
		if links[a].From != links[b].From {
			return links[a].From < links[b].From
		}
		return links[a].To < links[b].To
	})
	lms = make([]int, 0, 2*len(links))
	for _, lk := range links {
		lms = append(lms, lk.From, lk.To)
	}
	slices.Sort(lms)
	return slices.Compact(lms), links
}

// Link is one directed inter-landmark transit link with its traversal
// count.
type Link struct {
	From, To int
	Packets  int
}

// TopLinks returns the k most-traversed transit links, busiest first
// (ties break on (From, To) for determinism). k <= 0 returns all used
// links. Unlike FlowMatrix, its cost does not grow with the number of
// landmarks named.
func (l *Log) TopLinks(k int) []Link {
	pkts := l.Packets()
	links := traversed(pkts, l.numLandmarks(pkts))
	sort.Slice(links, func(a, b int) bool {
		if links[a].Packets != links[b].Packets {
			return links[a].Packets > links[b].Packets
		}
		if links[a].From != links[b].From {
			return links[a].From < links[b].From
		}
		return links[a].To < links[b].To
	})
	if k > 0 && len(links) > k {
		links = links[:k]
	}
	return links
}

// traversed returns every directed link between landmarks in [0, n)
// that some packet's station path crossed, with its traversal count, in
// no particular order.
func traversed(pkts []*PacketTrace, n int) []Link {
	type key struct{ from, to int }
	count := make(map[key]int)
	for _, pt := range pkts {
		for i := 1; i < len(pt.Stations); i++ {
			from, to := pt.Stations[i-1], pt.Stations[i]
			if from >= 0 && from < n && to >= 0 && to < n {
				count[key{from, to}]++
			}
		}
	}
	links := make([]Link, 0, len(count))
	for lk, c := range count {
		links = append(links, Link{From: lk.from, To: lk.to, Packets: c})
	}
	return links
}

// LandmarkLoad is one landmark's aggregate traffic view.
type LandmarkLoad struct {
	Landmark  int
	Generated int // packets generated here
	Received  int // station-path arrivals (incoming flow)
	Sent      int // station-path departures (outgoing flow)
	Delivered int // packets delivered here
	MaxQueue  int // largest sampled or recorded queue depth
}

// namedLandmarks returns, ascending and deduplicated, the landmarks among
// ids that the recording may name: non-negative and, when the header
// carries a landmark count, below it.
func (l *Log) namedLandmarks(ids []int) []int {
	out := ids[:0]
	for _, lm := range ids {
		if lm >= 0 && (l.Meta.Landmarks <= 0 || lm < l.Meta.Landmarks) {
			out = append(out, lm)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// LandmarkLoads aggregates per-landmark traffic over the landmarks the
// recording names (as a packet source, on a station path, or in a queue
// sample), ascending by landmark ID: one row per named landmark, never
// one per landmark the header claims.
func (l *Log) LandmarkLoads() []LandmarkLoad {
	pkts := l.Packets()
	var ids []int
	for _, pt := range pkts {
		ids = append(ids, pt.Src)
		ids = append(ids, pt.Stations...)
	}
	for _, ev := range l.Events {
		if ev.Kind == EvQueueDepth || ev.Kind == EvQueued {
			ids = append(ids, int(ev.A))
		}
	}
	lms := l.namedLandmarks(ids)
	loads := make([]LandmarkLoad, len(lms))
	for i, lm := range lms {
		loads[i].Landmark = lm
	}
	at := func(lm int) *LandmarkLoad {
		if i, ok := slices.BinarySearch(lms, lm); ok {
			return &loads[i]
		}
		return &LandmarkLoad{}
	}
	for _, pt := range pkts {
		if pt.Src >= 0 {
			at(pt.Src).Generated++
		}
		for i := 1; i < len(pt.Stations); i++ {
			at(pt.Stations[i-1]).Sent++
			at(pt.Stations[i]).Received++
		}
		if pt.Status == StatusDelivered && len(pt.Stations) > 0 {
			at(pt.Stations[len(pt.Stations)-1]).Delivered++
		}
	}
	for _, ev := range l.Events {
		if ev.Kind == EvQueueDepth || ev.Kind == EvQueued {
			if ld := at(int(ev.A)); int(ev.Aux) > ld.MaxQueue {
				ld.MaxQueue = int(ev.Aux)
			}
		}
	}
	return loads
}

// HopHistogram counts delivered packets by their landmark-path hop count
// (len(Stations)-1); index i holds the number of packets that crossed i
// inter-landmark links.
func (l *Log) HopHistogram() []int {
	var hist []int
	for _, pt := range l.Packets() {
		if pt.Status != StatusDelivered {
			continue
		}
		h := len(pt.Stations) - 1
		if h < 0 {
			h = 0
		}
		for len(hist) <= h {
			hist = append(hist, 0)
		}
		hist[h]++
	}
	return hist
}

// maxDelayBuckets caps DelayHistogram's bucket count. At one-day
// buckets it spans 1024 days, far past every scenario's TTL (DART: 20
// days) and trace, so real recordings keep the width they ask for.
const maxDelayBuckets = 1024

// DelayHistogram buckets delivered packets' end-to-end delays into
// equal-width buckets of the given width (seconds). It returns the
// bucket counts and the width actually used: a day when width <= 0,
// widened to a multiple of the requested width when the longest delay
// would otherwise need more than maxDelayBuckets buckets.
func (l *Log) DelayHistogram(width trace.Time) (counts []int, usedWidth trace.Time) {
	if width <= 0 {
		width = trace.Day
	}
	pkts := l.Packets()
	var longest trace.Time
	for _, pt := range pkts {
		if pt.Status == StatusDelivered && pt.Delay > longest {
			longest = pt.Delay
		}
	}
	if longest/width >= maxDelayBuckets {
		width *= longest/(width*maxDelayBuckets) + 1
	}
	for _, pt := range pkts {
		if pt.Status != StatusDelivered {
			continue
		}
		b := int(pt.Delay / width)
		for len(counts) <= b {
			counts = append(counts, 0)
		}
		counts[b]++
	}
	return counts, width
}
