package predict

import (
	"math/rand"
	"reflect"
	"testing"
)

// markovView is everything a caller can read from a predictor.
type markovView struct {
	HistoryLen, Current int
	Dist                []Prediction
	Next                int
	P                   float64
	OK                  bool
	ProbOf              []float64
}

func viewOf(m *Markov, domain int) markovView {
	v := markovView{HistoryLen: m.HistoryLen(), Current: m.Current()}
	v.Dist = append([]Prediction(nil), m.Distribution()...)
	v.Next, v.P, v.OK = m.Predict()
	for lm := 0; lm < domain; lm++ {
		v.ProbOf = append(v.ProbOf, m.ProbabilityOf(lm))
	}
	return v
}

// randomWalk returns a landmark sequence over [0, domain) with frequent
// consecutive repeats (which Observe ignores) and a bias toward a few
// favourite successors, so distributions have ties and clear winners.
func randomWalk(rng *rand.Rand, domain, steps int) []int {
	seq := make([]int, steps)
	cur := rng.Intn(domain)
	for i := range seq {
		switch r := rng.Intn(10); {
		case r < 2: // repeat
		case r < 6:
			cur = (cur*7 + 3) % domain
		default:
			cur = rng.Intn(domain)
		}
		seq[i] = cur
	}
	return seq
}

// TestDenseMarkovMatchesGeneric: an order-1 predictor with SetDomain (the
// dense path the router uses) must answer every query exactly as the
// generic map-backed path does, after every observation. The domain spans
// more than 128 landmarks so context keys need multi-byte varints.
func TestDenseMarkovMatchesGeneric(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		domain := 3 + rng.Intn(200)
		generic := NewMarkov(1)
		dense := NewMarkov(1)
		dense.SetDomain(domain)
		if got, want := viewOf(dense, domain), viewOf(generic, domain); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: empty dense %+v, generic %+v", seed, got, want)
		}
		for i, lm := range randomWalk(rng, domain, 300) {
			generic.Observe(lm)
			dense.Observe(lm)
			if got, want := viewOf(dense, domain), viewOf(generic, domain); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d (observe %d): dense %+v, generic %+v", seed, i, lm, got, want)
			}
		}
	}
}

// TestSetDomainNoOps: SetDomain switches only a fresh order-1 predictor
// with a positive domain; otherwise the predictor keeps the generic path.
func TestSetDomainNoOps(t *testing.T) {
	cases := map[string]*Markov{
		"order 2":     NewMarkov(2),
		"zero domain": NewMarkov(1),
		"after observe": func() *Markov {
			m := NewMarkov(1)
			m.Observe(1)
			return m
		}(),
	}
	for name, m := range cases {
		domain := 10
		if name == "zero domain" {
			domain = 0
		}
		m.SetDomain(domain)
		if m.rows != nil {
			t.Errorf("%s: SetDomain(%d) enabled the dense path", name, domain)
		}
	}
	m := NewMarkov(1)
	m.SetDomain(4)
	rows := m.rows
	m.SetDomain(8)
	if len(m.rows) != len(rows) {
		t.Error("second SetDomain resized the dense rows")
	}
	if NewMarkov(3).Order() != 3 {
		t.Error("Order() does not report the construction order")
	}
}

// TestMarkovCloneIndependence: a clone answers exactly as the original
// did at clone time, and later observations on either side never leak
// into the other — on the dense and the generic path, order 1 and 2.
func TestMarkovCloneIndependence(t *testing.T) {
	for _, tc := range []struct {
		name  string
		order int
		dense bool
	}{{"generic-1", 1, false}, {"generic-2", 2, false}, {"dense", 1, true}} {
		rng := rand.New(rand.NewSource(7))
		const domain = 40
		seq := randomWalk(rng, domain, 200)
		orig := NewMarkov(tc.order)
		replay := NewMarkov(tc.order)
		if tc.dense {
			orig.SetDomain(domain)
			replay.SetDomain(domain)
		}
		for _, lm := range seq[:100] {
			orig.Observe(lm)
			replay.Observe(lm)
		}
		orig.Distribution() // clone with a memoized distribution
		cp := orig.Clone()
		if !reflect.DeepEqual(viewOf(cp, domain), viewOf(orig, domain)) {
			t.Fatalf("%s: clone differs from the original", tc.name)
		}
		// Diverge: the original sees the rest of the walk, the clone a
		// different tail.
		for _, lm := range seq[100:] {
			orig.Observe(lm)
			cp.Observe((lm + 1) % domain)
		}
		for _, lm := range seq[100:] {
			replay.Observe(lm)
		}
		if !reflect.DeepEqual(viewOf(orig, domain), viewOf(replay, domain)) {
			t.Errorf("%s: the clone's observations leaked into the original", tc.name)
		}
		fresh := NewMarkov(tc.order)
		if tc.dense {
			fresh.SetDomain(domain)
		}
		for _, lm := range seq[:100] {
			fresh.Observe(lm)
		}
		for _, lm := range seq[100:] {
			fresh.Observe((lm + 1) % domain)
		}
		if !reflect.DeepEqual(viewOf(cp, domain), viewOf(fresh, domain)) {
			t.Errorf("%s: the original's observations leaked into the clone", tc.name)
		}
	}
}

// TestAccuracyTrackerClampAndClone: p_a multiplies by Alpha/Beta within
// [Floor, Cap], and a clone evolves independently of its original.
func TestAccuracyTrackerClampAndClone(t *testing.T) {
	a := NewAccuracyTracker()
	for i := 0; i < 50; i++ {
		a.Record(true)
	}
	if a.Value() != a.Cap {
		t.Errorf("after 50 hits p_a = %v, want the cap %v", a.Value(), a.Cap)
	}
	cp := a.Clone()
	for i := 0; i < 50; i++ {
		a.Record(false)
	}
	if a.Value() != a.Floor {
		t.Errorf("after 50 misses p_a = %v, want the floor %v", a.Value(), a.Floor)
	}
	if cp.Value() != cp.Cap {
		t.Errorf("clone moved with the original: %v", cp.Value())
	}
	cp.Alpha = 3
	if a.Alpha == 3 {
		t.Error("clone shares parameters with the original")
	}
}

func TestQuantileEdges(t *testing.T) {
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("quantile(empty) = %v", q)
	}
	if q := quantile([]float64{0.3}, 0.75); q != 0.3 {
		t.Errorf("quantile(single) = %v", q)
	}
	vals := []float64{0, 1, 2, 3}
	if q := quantile(vals, 1); q != 3 {
		t.Errorf("quantile(q=1) = %v, want the max", q)
	}
	if q := quantile(vals, 0.5); q != 1.5 {
		t.Errorf("quantile(q=0.5) = %v, want 1.5", q)
	}
}
