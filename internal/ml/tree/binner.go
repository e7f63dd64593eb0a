// Package tree implements CART decision trees (gini impurity) over
// quantile-binned features — the base learner of the random forest (§4.4.2)
// and the standalone decision-tree comparison of Fig. 10. Binning features
// into at most 256 quantile buckets turns each split search into a counting
// pass, which keeps fully-grown forests on months of KPI data fast without
// changing which splits are found in practice.
//
// Throughout this package feature matrices are column-major:
// cols[j][i] is feature j of sample i.
package tree

import (
	"fmt"
	"math"
	"sort"
)

// MaxBins is the number of quantile buckets per feature (fits uint8 codes).
const MaxBins = 256

// Binner maps raw feature values to uint8 bucket codes using per-feature
// quantile edges learned from training data.
type Binner struct {
	edges [][]float64 // edges[j] is sorted; code = #edges < ... (see Bin)
}

// NewBinner learns quantile edges (at most maxBins-1 per feature, deduped)
// from the column-major training features. maxBins is clamped to [2, 256].
func NewBinner(cols [][]float64, maxBins int) *Binner {
	return Sort(cols).binner(maxBins, 0, 0)
}

// Presort is a column-major matrix whose columns are each argsorted once, so
// that every binner learned from a subset of its rows (the training rows of a
// cross-validation fold, say) costs a linear walk instead of a sort. It reads
// the matrix it was built from; that matrix must not change while in use.
type Presort struct {
	cols [][]float64
	// order[j] lists the rows whose feature j is not NaN, ascending by
	// (value, row); -0 and +0 count as equal values.
	order [][]int32
}

// Sort argsorts every column of cols (column-major, equal lengths).
func Sort(cols [][]float64) *Presort {
	p := &Presort{cols: cols, order: make([][]int32, len(cols))}
	var buf, tmp []sortKey
	for j, col := range cols {
		buf = buf[:0]
		for i, v := range col {
			if !math.IsNaN(v) {
				buf = append(buf, sortKey{key: orderedBits(v), row: int32(i)})
			}
		}
		if cap(tmp) < len(buf) {
			tmp = make([]sortKey, len(buf))
		}
		sorted := radixSort(buf, tmp[:len(buf)])
		rows := make([]int32, len(sorted))
		for k, e := range sorted {
			rows[k] = e.row
		}
		p.order[j] = rows
	}
	return p
}

// NumFeatures returns the number of columns.
func (p *Presort) NumFeatures() int { return len(p.cols) }

// NumRows returns the number of rows (0 without columns).
func (p *Presort) NumRows() int {
	if len(p.cols) == 0 {
		return 0
	}
	return len(p.cols[0])
}

// Bin learns a binner from the rows outside [lo, hi) — exactly the one
// NewBinner learns from those rows materialized — and codes every row of the
// matrix under it, held-out rows included: binned[j][i] equals
// b.Code(j, cols[j][i]) for every row i. It requires
// 0 ≤ lo ≤ hi ≤ NumRows(); lo == hi learns from all rows.
func (p *Presort) Bin(maxBins, lo, hi int) (b *Binner, binned [][]uint8) {
	b = p.binner(maxBins, lo, hi)
	n := p.NumRows()
	backing := make([]uint8, len(p.cols)*n) // NaN rows keep code 0
	binned = make([][]uint8, len(p.cols))
	for j, col := range p.cols {
		codes := backing[j*n : (j+1)*n : (j+1)*n]
		// Merge walk: values ascend, so the count of edges below each value
		// only grows.
		edges, e := b.edges[j], 0
		for _, r := range p.order[j] {
			v := col[r]
			for e < len(edges) && edges[e] < v {
				e++
			}
			codes[r] = uint8(e)
		}
		binned[j] = codes
	}
	return b, binned
}

// binner selects each column's quantile edges from the rows outside
// [lo, hi): the value at sorted position k·m/maxBins for k = 1..maxBins-1,
// where m counts those rows' non-NaN values, dropping repeats.
func (p *Presort) binner(maxBins, lo, hi int) *Binner {
	if maxBins < 2 {
		maxBins = 2
	}
	if maxBins > MaxBins {
		maxBins = MaxBins
	}
	b := &Binner{edges: make([][]float64, len(p.cols))}
	for j, col := range p.cols {
		m := len(p.order[j])
		for _, v := range col[lo:hi] {
			if !math.IsNaN(v) {
				m--
			}
		}
		var edges []float64
		k, pos := 1, 0
		for _, r := range p.order[j] {
			if k == maxBins {
				break
			}
			if lo <= int(r) && int(r) < hi {
				continue
			}
			for ; k < maxBins && k*m/maxBins == pos; k++ {
				if e := col[r]; len(edges) == 0 || e > edges[len(edges)-1] {
					edges = append(edges, e)
				}
			}
			pos++
		}
		b.edges[j] = edges
	}
	return b
}

// sortKey pairs a row with its value's order-preserving bit pattern.
type sortKey struct {
	key uint64
	row int32
}

// orderedBits maps a non-NaN float64 to a uint64 that sorts the same way,
// with -0 and +0 mapped alike.
func orderedBits(v float64) uint64 {
	if v == 0 {
		v = 0 // fold -0 into +0
	}
	u := math.Float64bits(v)
	if u>>63 != 0 {
		return ^u
	}
	return u | 1<<63
}

// radixSort sorts a by key with a stable LSD radix sort over the key's eight
// bytes, using tmp (same length) as scratch, and returns whichever of the two
// holds the result. Stability keeps equal values in row order. Bytes on which
// every key agrees are skipped.
func radixSort(a, tmp []sortKey) []sortKey {
	if len(a) < 2 {
		return a
	}
	var hist [8][256]int32
	for _, e := range a {
		for d := range hist {
			hist[d][byte(e.key>>(8*d))]++
		}
	}
	for d := range hist {
		h := &hist[d]
		if int(h[byte(a[0].key>>(8*d))]) == len(a) {
			continue
		}
		var sum int32
		for c, cnt := range h {
			h[c] = sum
			sum += cnt
		}
		for _, e := range a {
			c := byte(e.key >> (8 * d))
			tmp[h[c]] = e
			h[c]++
		}
		a, tmp = tmp, a
	}
	return a
}

// NumFeatures returns the number of features the binner was built for.
func (b *Binner) NumFeatures() int { return len(b.edges) }

// Code returns the bucket of value v for feature j: the number of edges
// strictly below v. NaN maps to bucket 0 (treat missing severities as
// "no evidence of anomaly").
func (b *Binner) Code(j int, v float64) uint8 {
	if math.IsNaN(v) {
		return 0
	}
	e := b.edges[j]
	// First index with edge >= v ⇒ v sits in that bucket.
	return uint8(sort.SearchFloat64s(e, v))
}

// Threshold returns the raw-value upper boundary of bucket code for feature
// j; points with value ≤ Threshold(j, code) go to buckets ≤ code. For the
// last bucket it returns +Inf.
func (b *Binner) Threshold(j int, code uint8) float64 {
	e := b.edges[j]
	if int(code) >= len(e) {
		return math.Inf(1)
	}
	return e[code]
}

// Bin encodes column-major features into column-major uint8 codes.
func (b *Binner) Bin(cols [][]float64) [][]uint8 {
	if len(cols) != len(b.edges) {
		panic(fmt.Sprintf("tree: binner built for %d features, got %d", len(b.edges), len(cols)))
	}
	out := make([][]uint8, len(cols))
	for j, col := range cols {
		codes := make([]uint8, len(col))
		for i, v := range col {
			codes[i] = b.Code(j, v)
		}
		out[j] = codes
	}
	return out
}
