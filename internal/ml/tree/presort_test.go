package tree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refEdges is the original NewBinner edge selection, verbatim: sort the
// non-NaN values, take the value at position k·m/maxBins, drop repeats.
func refEdges(col []float64, maxBins int) []float64 {
	sorted := make([]float64, 0, len(col))
	for _, v := range col {
		if !math.IsNaN(v) {
			sorted = append(sorted, v)
		}
	}
	sort.Float64s(sorted)
	var edges []float64
	for k := 1; k < maxBins; k++ {
		if len(sorted) == 0 {
			break
		}
		pos := k * len(sorted) / maxBins
		if pos >= len(sorted) {
			pos = len(sorted) - 1
		}
		e := sorted[pos]
		if len(edges) == 0 || e > edges[len(edges)-1] {
			edges = append(edges, e)
		}
	}
	return edges
}

// specialMatrix draws columns mixing NaN, ±Inf, ±0, heavy ties and
// continuous values.
func specialMatrix(rng *rand.Rand, n, d int) [][]float64 {
	pool := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1, -1, 2.5}
	cols := make([][]float64, d)
	for j := range cols {
		col := make([]float64, n)
		special := rng.Float64()
		for i := range col {
			if rng.Float64() < special {
				col[i] = pool[rng.Intn(len(pool))]
			} else {
				col[i] = rng.NormFloat64()
			}
		}
		cols[j] = col
	}
	return cols
}

// TestPresortFoldMatchesMaterialized: the binner and codes learned in place
// from the rows outside [lo, hi) equal NewBinner + Bin on those rows copied
// out, bit for bit, and the held-out rows are coded by the same binner.
func TestPresortFoldMatchesMaterialized(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		cols := specialMatrix(rng, n, 1+rng.Intn(5))
		lo := rng.Intn(n + 1)
		hi := lo + rng.Intn(n-lo+1)
		if hi-lo == n {
			hi = lo // keep at least one training row
		}
		maxBins := []int{0, 2, 3, 16, MaxBins, 1000}[rng.Intn(6)]

		b, binned := Sort(cols).Bin(maxBins, lo, hi)
		fold := make([][]float64, len(cols))
		for j, col := range cols {
			fold[j] = append(append([]float64(nil), col[:lo]...), col[hi:]...)
		}
		want := NewBinner(fold, maxBins)
		clamped := min(max(maxBins, 2), MaxBins)
		for j, col := range cols {
			got, exp := b.edges[j], want.edges[j]
			if len(got) != len(exp) {
				t.Fatalf("seed %d col %d: %d edges, want %d", seed, j, len(got), len(exp))
			}
			ref := refEdges(fold[j], clamped)
			if len(ref) != len(got) {
				t.Fatalf("seed %d col %d: %d edges, original selection has %d", seed, j, len(got), len(ref))
			}
			for k := range got {
				if math.Float64bits(got[k]) != math.Float64bits(exp[k]) {
					t.Fatalf("seed %d col %d edge %d: %v, want %v", seed, j, k, got[k], exp[k])
				}
				if got[k] != ref[k] {
					t.Fatalf("seed %d col %d edge %d: %v, original selection %v", seed, j, k, got[k], ref[k])
				}
			}
			for i, v := range col {
				if c := want.Code(j, v); binned[j][i] != c {
					t.Fatalf("seed %d col %d row %d (%v): code %d, want %d", seed, j, i, v, binned[j][i], c)
				}
			}
		}
	}
}

func TestSortOrdersByValueThenRow(t *testing.T) {
	negZero := math.Copysign(0, -1)
	col := []float64{3, math.NaN(), 0, math.Inf(-1), negZero, 3, math.Inf(1), -2, 0}
	got := Sort([][]float64{col}).order[0]
	want := []int32{3, 7, 2, 4, 8, 0, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("order %v, want %v", got, want)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}
