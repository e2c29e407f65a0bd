package geom

import (
	"fmt"
	"math"
)

// Grid is the δ-square partition of a rectangular monitoring region
// (Section III-B of the paper). The region is divided into Cols × Rows
// squares of edge length Delta; the centre of each square is a candidate
// hovering location for the UAV.
//
// Squares are addressed either by (col, row) or by a single linear index
// idx = row*Cols + col.
type Grid struct {
	Region Rect
	Delta  float64
	Cols   int
	Rows   int
}

// NewGrid partitions region into squares of edge length delta.
// The last column/row may extend past the region boundary when the region's
// extent is not an exact multiple of delta, matching the paper's "partition
// into M equal squares" abstraction. delta must be positive and the region
// non-degenerate, and the column count, the row count and the square count
// M = Cols·Rows must each fit in int.
func NewGrid(region Rect, delta float64) (*Grid, error) {
	if !(delta > 0) {
		return nil, fmt.Errorf("geom: grid delta must be positive, got %v", delta)
	}
	if region.Width() <= 0 || region.Height() <= 0 {
		return nil, fmt.Errorf("geom: degenerate region %v", region)
	}
	// float64(math.MaxInt) rounds up to 2^63 on 64-bit platforms, so a
	// count below it converts exactly; an int conversion of anything
	// larger is implementation-defined garbage.
	colsF := math.Ceil(region.Width() / delta)
	rowsF := math.Ceil(region.Height() / delta)
	if !(colsF < float64(math.MaxInt)) || !(rowsF < float64(math.MaxInt)) {
		return nil, fmt.Errorf("geom: %g × %g grid squares at delta %v overflow int", colsF, rowsF, delta)
	}
	cols, rows := int(colsF), int(rowsF)
	if rows > 0 && cols > math.MaxInt/rows {
		return nil, fmt.Errorf("geom: %d × %d grid squares at delta %v overflow int", cols, rows, delta)
	}
	return &Grid{Region: region, Delta: delta, Cols: cols, Rows: rows}, nil
}

// NumSquares returns M, the total number of squares in the partition.
func (g *Grid) NumSquares() int { return g.Cols * g.Rows }

// Center returns the centre of square idx.
func (g *Grid) Center(idx int) Point {
	col, row := idx%g.Cols, idx/g.Cols
	return Point{
		X: g.Region.Min.X + (float64(col)+0.5)*g.Delta,
		Y: g.Region.Min.Y + (float64(row)+0.5)*g.Delta,
	}
}

// Square returns the rectangle of square idx.
func (g *Grid) Square(idx int) Rect {
	col, row := idx%g.Cols, idx/g.Cols
	min := Point{
		X: g.Region.Min.X + float64(col)*g.Delta,
		Y: g.Region.Min.Y + float64(row)*g.Delta,
	}
	return Rect{Min: min, Max: Point{min.X + g.Delta, min.Y + g.Delta}}
}

// IndexOf returns the linear index of the square containing p, clamping
// points on or past the boundary into the nearest edge square. The second
// result is false if p lies outside the region entirely (beyond clamping
// tolerance of one square).
func (g *Grid) IndexOf(p Point) (int, bool) {
	inside := g.Region.Contains(p)
	col := int(math.Floor((p.X - g.Region.Min.X) / g.Delta))
	row := int(math.Floor((p.Y - g.Region.Min.Y) / g.Delta))
	col = clampInt(col, 0, g.Cols-1)
	row = clampInt(row, 0, g.Rows-1)
	return row*g.Cols + col, inside
}

// SquaresNear returns the linear indices of all squares whose centre lies
// within radius of p. This is the candidate-generation primitive: the set of
// hovering locations from which the UAV could cover a device at p has
// exactly this form. Indices are returned in ascending order.
func (g *Grid) SquaresNear(p Point, radius float64) []int {
	if radius < 0 {
		return nil
	}
	// Centres live on a lattice offset by Delta/2; bound the candidate
	// col/row window, then test exactly.
	minCol := int(math.Floor((p.X-radius-g.Region.Min.X)/g.Delta - 0.5))
	maxCol := int(math.Ceil((p.X+radius-g.Region.Min.X)/g.Delta - 0.5))
	minRow := int(math.Floor((p.Y-radius-g.Region.Min.Y)/g.Delta - 0.5))
	maxRow := int(math.Ceil((p.Y+radius-g.Region.Min.Y)/g.Delta - 0.5))
	minCol = clampInt(minCol, 0, g.Cols-1)
	maxCol = clampInt(maxCol, 0, g.Cols-1)
	minRow = clampInt(minRow, 0, g.Rows-1)
	maxRow = clampInt(maxRow, 0, g.Rows-1)

	r2 := radius * radius
	var out []int
	for row := minRow; row <= maxRow; row++ {
		cy := g.Region.Min.Y + (float64(row)+0.5)*g.Delta
		dy := cy - p.Y
		for col := minCol; col <= maxCol; col++ {
			cx := g.Region.Min.X + (float64(col)+0.5)*g.Delta
			dx := cx - p.X
			if dx*dx+dy*dy <= r2+1e-9 {
				out = append(out, row*g.Cols+col)
			}
		}
	}
	return out
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
