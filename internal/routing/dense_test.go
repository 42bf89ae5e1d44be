package routing

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// bwView is everything a caller can read from a bandwidth table over a
// landmark domain.
type bwView struct {
	Bandwidth []float64
	Reported  []bool
	Neighbors []int
}

func bwViewOf(t *BandwidthTable, domain int) bwView {
	v := bwView{Neighbors: t.Neighbors()}
	for n := 0; n < domain; n++ {
		v.Bandwidth = append(v.Bandwidth, t.Bandwidth(n))
		v.Reported = append(v.Reported, t.Reported(n))
	}
	return v
}

// bwOp is one Apply or ApplySymmetric call.
type bwOp struct {
	sym   bool
	nbr   int
	count float64
	seq   int
}

func randomBWOps(rng *rand.Rand, domain, n int) []bwOp {
	ops := make([]bwOp, n)
	for i := range ops {
		ops[i] = bwOp{
			sym:   rng.Intn(2) == 0,
			nbr:   rng.Intn(domain),
			count: float64(rng.Intn(5)), // zero counts decay a link to 0
			seq:   rng.Intn(12),         // stale sequence numbers are common
		}
	}
	return ops
}

func (op bwOp) apply(t *BandwidthTable) bool {
	if op.sym {
		return t.ApplySymmetric(op.nbr, op.count, op.seq)
	}
	return t.Apply(op.nbr, op.count, op.seq)
}

// TestBandwidthDenseMatchesMap: the dense per-neighbour arrays SetDomain
// enables must accept and reject the same reports and expose the same
// estimates, reported flags and neighbour set as the map path, after
// every update.
func TestBandwidthDenseMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		domain := 2 + rng.Intn(30)
		generic := NewBandwidthTable(0.3)
		dense := NewBandwidthTable(0.3)
		dense.SetDomain(domain)
		for i, op := range randomBWOps(rng, domain, 200) {
			if g, d := op.apply(generic), op.apply(dense); g != d {
				t.Fatalf("seed %d op %d %+v: map fresh=%v, dense fresh=%v", seed, i, op, g, d)
			}
			if g, d := bwViewOf(generic, domain), bwViewOf(dense, domain); !reflect.DeepEqual(g, d) {
				t.Fatalf("seed %d op %d %+v:\n map %+v\ndense %+v", seed, i, op, g, d)
			}
		}
	}
	// SetDomain after an update, or with an empty domain, keeps the map.
	b := NewBandwidthTable(2) // out-of-range rho clamps to 0.5
	if b.Rho != 0.5 {
		t.Errorf("rho = %v, want the 0.5 default", b.Rho)
	}
	b.Apply(1, 2, 1)
	b.SetDomain(4)
	if b.repV != nil {
		t.Error("SetDomain after Apply switched to the dense path")
	}
	b = NewBandwidthTable(0.5)
	if b.SetDomain(0); b.repV != nil {
		t.Error("SetDomain(0) switched to the dense path")
	}
}

// TestBandwidthCloneIndependence: a clone reads as the original did at
// clone time and never sees later updates, on both storage paths.
func TestBandwidthCloneIndependence(t *testing.T) {
	for _, dense := range []bool{false, true} {
		rng := rand.New(rand.NewSource(3))
		const domain = 12
		ops := randomBWOps(rng, domain, 120)
		orig := NewBandwidthTable(0.4)
		fresh := NewBandwidthTable(0.4)
		if dense {
			orig.SetDomain(domain)
			fresh.SetDomain(domain)
		}
		for _, op := range ops[:60] {
			op.apply(orig)
			op.apply(fresh)
		}
		cp := orig.Clone()
		for _, op := range ops[60:] {
			op.apply(orig)
			op.count++
			op.seq += 20
			op.apply(cp)
		}
		for _, op := range ops[60:] {
			op.count++
			op.seq += 20
			op.apply(fresh)
		}
		if !reflect.DeepEqual(bwViewOf(cp, domain), bwViewOf(fresh, domain)) {
			t.Errorf("dense=%v: clone does not evolve like a fresh replay", dense)
		}
	}
}

// TestArrivalCounterDenseMatchesMap: Roll must emit the same reports, in
// the same ascending-From order, on the dense and the map path, and a
// clone must count independently of its original.
func TestArrivalCounterDenseMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		domain := 2 + rng.Intn(20)
		generic := NewArrivalCounter()
		dense := NewArrivalCounter()
		dense.SetDomain(domain)
		for unit := 0; unit < 10; unit++ {
			for i := rng.Intn(30); i > 0; i-- {
				from := rng.Intn(domain+1) - 1 // -1: no previous landmark
				generic.Record(from)
				dense.Record(from)
			}
			var known []int
			for n := 0; n < domain; n++ {
				if rng.Intn(3) == 0 {
					known = append(known, n)
				}
			}
			if unit == 5 {
				cp := dense.Clone()
				dense.Record(0)
				want := append([]BandwidthReport(nil), generic.Clone().Roll(99, unit, known)...)
				if got := cp.Roll(99, unit, known); !slices.Equal(got, want) {
					t.Fatalf("seed %d: clone rolled %+v, want %+v", seed, got, want)
				}
				generic.Record(0)
			}
			g := append([]BandwidthReport(nil), generic.Roll(7, unit, known)...)
			d := dense.Roll(7, unit, known)
			if !slices.Equal(g, d) {
				t.Fatalf("seed %d unit %d:\n map %+v\ndense %+v", seed, unit, g, d)
			}
		}
	}
	c := NewArrivalCounter()
	c.Record(2)
	if c.SetDomain(5); c.cnt != nil {
		t.Error("SetDomain on a non-empty counter switched to the dense path")
	}
}

// TestTableAccessors covers the read-only views the router uses for
// change detection and inspection.
func TestTableAccessors(t *testing.T) {
	tb := NewTable(0, 5)
	if tb.Size() != 5 {
		t.Errorf("Size = %d", tb.Size())
	}
	g0 := tb.Gen()
	tb.SetLinkDelay(2, 4)
	tb.SetLinkDelay(1, 3)
	if tb.Gen() == g0 {
		t.Error("Gen did not advance on a routed change")
	}
	if d := tb.LinkDelay(2); d != 4 {
		t.Errorf("LinkDelay(2) = %v", d)
	}
	if d := tb.LinkDelay(-1); d != Infinite {
		t.Errorf("LinkDelay(-1) = %v, want Infinite", d)
	}
	if got := tb.AppendNeighbors([]int{9}); !reflect.DeepEqual(got, []int{9, 1, 2}) {
		t.Errorf("AppendNeighbors = %v", got)
	}
	tb.MergeVector(2, []float64{Infinite, Infinite, 0, 1, Infinite}, 1)
	want := []int{-1, 1, 2, 2, -1}
	if got := tb.NextHops(); !reflect.DeepEqual(got, want) {
		t.Errorf("NextHops = %v, want %v", got, want)
	}
	if got := tb.AppendNextHops([]int{7}); !reflect.DeepEqual(got, append([]int{7}, want...)) {
		t.Errorf("AppendNextHops = %v", got)
	}
}
