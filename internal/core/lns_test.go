package core

import "testing"

func TestLNSNeverWorseThanBase(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		in := mediumInstance(t, seed, 1.2e4)
		in.K = 2
		base, err := (&Algorithm3{}).Plan(in)
		if err != nil {
			t.Fatal(err)
		}
		lns, err := (&LNSPlanner{}).Plan(in)
		if err != nil {
			t.Fatal(err)
		}
		if lns.Collected() < base.Collected()-1e-9 {
			t.Errorf("seed %d: LNS %v below base %v", seed, lns.Collected(), base.Collected())
		}
		if err := ValidatePlan(in.Net, in.Model, in.EffectiveCoverRadius(), lns); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		if lns.Algorithm != "lns" {
			t.Errorf("label = %q", lns.Algorithm)
		}
	}
}

func TestLNSImprovesSomewhere(t *testing.T) {
	improved := false
	for _, seed := range []uint64{1, 2, 3, 4, 5, 6} {
		in := mediumInstance(t, seed, 1e4)
		in.K = 2
		base, err := (&Algorithm3{}).Plan(in)
		if err != nil {
			t.Fatal(err)
		}
		lns, err := (&LNSPlanner{}).Plan(in)
		if err != nil {
			t.Fatal(err)
		}
		if lns.Collected() > base.Collected()+1 {
			improved = true
		}
	}
	if !improved {
		t.Error("LNS never beat the greedy base on any of six tight instances")
	}
}

func TestLNSDeterministic(t *testing.T) {
	in := mediumInstance(t, 4, 1e4)
	a, err := (&LNSPlanner{}).Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&LNSPlanner{}).Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	if a.Collected() != b.Collected() || len(a.Stops) != len(b.Stops) {
		t.Error("LNS not deterministic under fixed seed")
	}
}

func TestLNSForeignBaseFallsBack(t *testing.T) {
	in := mediumInstance(t, 5, 1.5e4)
	// The benchmark's stops are sensor positions, not grid candidates;
	// LNS must detect this and return the base plan unchanged.
	base, err := (&BenchmarkPlanner{}).Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	lns, err := (&LNSPlanner{Base: &BenchmarkPlanner{}}).Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	if lns.Collected() != base.Collected() {
		t.Errorf("fallback changed volume: %v vs %v", lns.Collected(), base.Collected())
	}
}

func TestLNSZeroCapacity(t *testing.T) {
	in := mediumInstance(t, 6, 0)
	lns, err := (&LNSPlanner{}).Plan(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(lns.Stops) != 0 {
		t.Error("zero capacity LNS produced stops")
	}
}
