package sim

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// cloneRouter is a forkable recordingRouter: its only state is the
// callback log, which a clone copies.
type cloneRouter struct {
	recordingRouter
	// timerAt, when positive, makes the first contact schedule a no-op
	// protocol timer at that time.
	timerAt trace.Time
}

func (r *cloneRouter) OnContact(ctx *Context, c *Contact) {
	if r.timerAt > 0 {
		ctx.Schedule(r.timerAt, func() {})
		r.timerAt = 0
	}
	r.recordingRouter.OnContact(ctx, c)
}

func (r *cloneRouter) CloneRouter(ctx *Context) Router {
	return &cloneRouter{recordingRouter: recordingRouter{events: append([]string(nil), r.events...)}}
}

// idleCloner is a forkable router that never moves a packet.
type idleCloner struct{ hookRouter }

func (r *idleCloner) CloneRouter(ctx *Context) Router { return &idleCloner{} }

// nopChecker attaches an invariant checker that checks nothing.
type nopChecker struct{}

func (nopChecker) Generated(trace.Time, *Packet)                                {}
func (nopChecker) Transferred(trace.Time, telemetry.HopKind, *Packet, int, int) {}
func (nopChecker) Delivered(trace.Time, *Packet, int)                           {}
func (nopChecker) Dropped(trace.Time, *Packet, metrics.DropReason)              {}
func (nopChecker) Score(trace.Time, string, int, int, float64)                  {}
func (nopChecker) Table(trace.Time, int, *routing.Table)                        {}
func (nopChecker) Scan(trace.Time, *Context)                                    {}
func (nopChecker) Finish(*Context)                                              {}

// forkConfig warms up over the first quarter of a 40-trip shuttle and
// measures the rest.
func forkConfig(seed int64) Config {
	return Config{Seed: seed, PacketSize: 1, NodeMemory: 50, TTL: 3000, Unit: 1000, Warmup: 2000, LinkRate: 5}
}

func TestSnapshotRefusals(t *testing.T) {
	tr := twoHopTrace(40)
	cases := []struct {
		name string
		eng  func() *Engine
		want string
	}{
		{"before warmup", func() *Engine {
			return New(tr, &cloneRouter{}, nil, forkConfig(1))
		}, "before RunWarmup"},
		{"router without Cloner", func() *Engine {
			e := New(tr, &recordingRouter{}, nil, forkConfig(1))
			e.RunWarmup()
			return e
		}, "does not implement Cloner"},
		{"pending timer", func() *Engine {
			e := New(tr, &cloneRouter{timerAt: 5000}, nil, forkConfig(1))
			e.RunWarmup()
			return e
		}, "pending timer"},
		{"attached checker", func() *Engine {
			cfg := forkConfig(1)
			cfg.Check = nopChecker{}
			e := New(tr, &cloneRouter{}, nil, cfg)
			e.RunWarmup()
			return e
		}, "invariant checker"},
		{"pending generation", func() *Engine {
			e := New(tr, &cloneRouter{}, NewWorkload(3000, 1, 2000), forkConfig(1))
			e.RunWarmup()
			return e
		}, "pending packet generation"},
		{"station holding packets", func() *Engine {
			e := New(tr, &idleCloner{}, nil, forkConfig(1))
			e.ctx.Stations[1].Buffer.Add(&Packet{ID: 0, Src: 1, Dst: 0, DstNode: -1, Size: 1, Expiry: 1 << 40, NextHop: -1})
			e.RunWarmup()
			return e
		}, "station 1 holds packets"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := c.eng().Snapshot()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Snapshot = %v, %v; want an error containing %q", s, err, c.want)
			}
		})
	}
}

// TestForkIsolation forks one snapshot twice and checks each fork is
// bit-identical to a fresh end-to-end run with its seed, whatever ran on
// the snapshot's other forks before it, and that running forks leaves
// the snapshot's warm state untouched.
func TestForkIsolation(t *testing.T) {
	tr := twoHopTrace(40)
	fresh := func(seed int64) metrics.Summary {
		return New(tr, &cloneRouter{}, NewWorkload(3000, 1, 2000), forkConfig(seed)).Run().Summary
	}
	warm := New(tr, &cloneRouter{}, nil, forkConfig(1))
	warm.RunWarmup()
	snap, err := warm.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	warmLog := append([]string(nil), warm.router.(*cloneRouter).events...)

	for _, seed := range []int64{3, 5, 3} {
		fork := Fork(snap, NewWorkload(3000, 1, 2000), seed)
		got := fork.Run().Summary
		if want := fresh(seed); !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: fork differs from a fresh run:\nfork  %+v\nfresh %+v", seed, got, want)
		}
		if got.Generated == 0 {
			t.Errorf("seed %d: forked run generated nothing", seed)
		}
		if fork.ctx.Nodes[0] == snap.nodes[0] || fork.ctx.Nodes[0].Buffer == snap.nodes[0].Buffer {
			t.Error("fork shares a node with its snapshot")
		}
	}
	if got := snap.router.(*cloneRouter).events; !reflect.DeepEqual(got, warmLog) {
		t.Errorf("running forks changed the snapshot's router: %d callbacks, want %d", len(got), len(warmLog))
	}
	for _, n := range snap.nodes {
		if n.Buffer.Len() != 0 {
			t.Errorf("snapshot node %d picked up %d packets from a fork", n.ID, n.Buffer.Len())
		}
	}
	for _, st := range snap.stations {
		if st.Buffer.Len() != 0 {
			t.Errorf("snapshot station %d picked up %d packets from a fork", st.ID, st.Buffer.Len())
		}
	}
}
