package geom

import (
	"math/rand"
	"strings"
	"testing"
)

func TestNewGridErrors(t *testing.T) {
	if _, err := NewGrid(Square(100), 0); err == nil {
		t.Error("want error for delta = 0")
	}
	if _, err := NewGrid(Square(100), -5); err == nil {
		t.Error("want error for negative delta")
	}
	if _, err := NewGrid(Rect{}, 5); err == nil {
		t.Error("want error for degenerate region")
	}
}

// TestNewGridOverflow rejects a δ so small over a 1000 m square that the
// column and row counts, or the square count M, do not fit in int: at
// 1e-300 each count exceeds int's range; at 1e-12 each count fits but
// M = 1e30 does not.
func TestNewGridOverflow(t *testing.T) {
	cases := []struct {
		delta      float64
		wantErr    bool
		cols, rows int
	}{
		{1e-300, true, 0, 0},
		{1e-12, true, 0, 0},
		{5, false, 200, 200},
	}
	for _, tc := range cases {
		g, err := NewGrid(Square(1000), tc.delta)
		if tc.wantErr {
			if err == nil {
				t.Errorf("delta=%v: got a %d × %d grid (M = %d), want an overflow error", tc.delta, g.Cols, g.Rows, g.NumSquares())
			} else if !strings.Contains(err.Error(), "overflow int") {
				t.Errorf("delta=%v: error %q, want an overflow error", tc.delta, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("delta=%v: %v", tc.delta, err)
		}
		if g.Cols != tc.cols || g.Rows != tc.rows || g.NumSquares() != tc.cols*tc.rows {
			t.Errorf("delta=%v: %d × %d grid (M = %d), want %d × %d", tc.delta, g.Cols, g.Rows, g.NumSquares(), tc.cols, tc.rows)
		}
	}
}

func TestGridDimensions(t *testing.T) {
	cases := []struct {
		side  float64
		delta float64
		cols  int
	}{
		{1000, 5, 200},
		{1000, 10, 100},
		{1000, 30, 34}, // ceil(1000/30)
		{100, 100, 1},
		{100, 101, 1},
	}
	for _, tc := range cases {
		g, err := NewGrid(Square(tc.side), tc.delta)
		if err != nil {
			t.Fatal(err)
		}
		if g.Cols != tc.cols || g.Rows != tc.cols {
			t.Errorf("side=%v delta=%v: cols=%d rows=%d, want %d", tc.side, tc.delta, g.Cols, g.Rows, tc.cols)
		}
		if g.NumSquares() != tc.cols*tc.cols {
			t.Errorf("NumSquares = %d", g.NumSquares())
		}
	}
}

func TestGridCenterAndSquare(t *testing.T) {
	g, _ := NewGrid(Square(100), 10)
	if got := g.Center(0); got != Pt(5, 5) {
		t.Errorf("Center(0) = %v", got)
	}
	// Square index 12 = row 1, col 2.
	if got := g.Center(12); got != Pt(25, 15) {
		t.Errorf("Center(12) = %v", got)
	}
	sq := g.Square(12)
	if sq.Min != Pt(20, 10) || sq.Max != Pt(30, 20) {
		t.Errorf("Square(12) = %+v", sq)
	}
}

func TestGridIndexOfRoundTrip(t *testing.T) {
	g, _ := NewGrid(Square(1000), 7)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		p := Pt(rng.Float64()*1000, rng.Float64()*1000)
		idx, ok := g.IndexOf(p)
		if !ok {
			t.Fatalf("point %v inside region reported outside", p)
		}
		if !g.Square(idx).Contains(p) {
			t.Fatalf("point %v not inside its square %d = %+v", p, idx, g.Square(idx))
		}
	}
}

func TestGridIndexOfOutside(t *testing.T) {
	g, _ := NewGrid(Square(100), 10)
	idx, ok := g.IndexOf(Pt(-50, -50))
	if ok {
		t.Error("point far outside reported inside")
	}
	if idx != 0 {
		t.Errorf("outside point should clamp to corner square, got %d", idx)
	}
	idx, ok = g.IndexOf(Pt(100, 100))
	if !ok || idx != g.NumSquares()-1 {
		t.Errorf("max corner: idx=%d ok=%v", idx, ok)
	}
}

func TestSquaresNearMatchesBruteForce(t *testing.T) {
	g, _ := NewGrid(Square(300), 13)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		p := Pt(rng.Float64()*300, rng.Float64()*300)
		r := rng.Float64() * 80
		got := g.SquaresNear(p, r)
		var want []int
		for i := 0; i < g.NumSquares(); i++ {
			if g.Center(i).Dist(p) <= r+1e-9 {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d squares, want %d (p=%v r=%v)", trial, len(got), len(want), p, r)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: mismatch at %d: %d vs %d", trial, i, got[i], want[i])
			}
		}
	}
}

func TestSquaresNearNegativeRadius(t *testing.T) {
	g, _ := NewGrid(Square(100), 10)
	if got := g.SquaresNear(Pt(50, 50), -1); got != nil {
		t.Errorf("negative radius should yield nil, got %v", got)
	}
}

func TestSquaresNearCountBound(t *testing.T) {
	// Paper §IV: the number of squares covering one device is at most
	// ceil(pi*R0^2/delta^2) + O(perimeter). Sanity-check the asymptotic
	// count for an interior point.
	g, _ := NewGrid(Square(1000), 5)
	got := len(g.SquaresNear(Pt(500, 500), 50))
	// pi * 50^2 / 25 ≈ 314.16
	if got < 290 || got > 340 {
		t.Errorf("squares covering interior point = %d, want ≈ 314", got)
	}
}
