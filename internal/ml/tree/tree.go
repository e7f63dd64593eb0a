package tree

import (
	"fmt"
	"io"
	"math/bits"
	"math/rand"
)

// Config controls tree growth.
type Config struct {
	// MaxDepth limits tree depth; 0 grows fully (until pure or MinLeaf),
	// as random forests do (§4.4.2).
	MaxDepth int
	// MinLeaf is the minimum samples per leaf (default 1).
	MinLeaf int
	// FeaturesPerSplit is how many randomly chosen features each split
	// considers; 0 means all (plain CART). Random forests use √d.
	FeaturesPerSplit int
	// Rng drives feature subsampling; required when FeaturesPerSplit > 0.
	Rng *rand.Rand
}

// node is one tree node in the flattened node array.
type node struct {
	feature     int
	bin         uint8 // go left when code ≤ bin
	left, right int32
	prob        float32 // leaf anomaly probability
	leaf        bool
}

// Tree is a trained CART classifier over binned features.
type Tree struct {
	nodes []node
	// importance[j] is feature j's accumulated impurity decrease, weighted
	// by the fraction of training samples reaching each split (gini
	// importance, the preliminary §4.4.2 builds on: features closer to the
	// root separate more data).
	importance []float64
}

// Grow trains a tree on the binned column-major features restricted to the
// sample indices idx, a bootstrap that may repeat rows; idx is not modified.
// labels[i] is the ground truth of sample i.
func Grow(binned [][]uint8, labels []bool, idx []int, cfg Config) *Tree {
	if cfg.MinLeaf < 1 {
		cfg.MinLeaf = 1
	}
	if cfg.FeaturesPerSplit > 0 && cfg.Rng == nil {
		panic("tree: FeaturesPerSplit > 0 requires Rng")
	}
	t := &Tree{importance: make([]float64, len(binned))}
	g := grower{binned: binned, cfg: cfg, t: t, total: len(idx)}
	g.featScratch = make([]int, len(binned))
	for j := range g.featScratch {
		g.featScratch[j] = j
	}
	// A bootstrap repeats about a third of its draws: grow on the distinct
	// rows, each weighted by how often it was drawn. Every count the split
	// search and the leaves use is the same sum either way.
	counts := make([]int32, len(labels))
	for _, i := range idx {
		counts[i]++
	}
	samples := make([]sample, 0, len(idx))
	for r, c := range counts {
		if c > 0 {
			s := sample{row: int32(r), w: c}
			if labels[r] {
				s.y = 1
			}
			samples = append(samples, s)
		}
	}
	g.grow(samples, 0)
	return t
}

// Importances returns the per-feature gini importances of the tree, summing
// to at most 1 (0 for features never split on).
func (t *Tree) Importances() []float64 {
	return append([]float64(nil), t.importance...)
}

// sample is one distinct training row with its bootstrap multiplicity w and
// its label as a histogram index y (1 = anomaly).
type sample struct {
	row int32
	w   int32
	y   uint8
}

type grower struct {
	binned      [][]uint8
	cfg         Config
	t           *Tree
	total       int
	featScratch []int
	hist        [MaxBins][2]int32 // zero between bestSplit calls
}

// grow builds the subtree for samples (which it reorders in place) at the
// given depth and returns its node index.
func (g *grower) grow(samples []sample, depth int) int32 {
	var n, pos int32
	for _, s := range samples {
		n += s.w
		pos += s.w * int32(s.y)
	}
	prob := float32(pos) / float32(n)
	me := int32(len(g.t.nodes))
	g.t.nodes = append(g.t.nodes, node{leaf: true, prob: prob})
	if pos == 0 || pos == n || int(n) < 2*g.cfg.MinLeaf ||
		(g.cfg.MaxDepth > 0 && depth >= g.cfg.MaxDepth) {
		return me
	}
	feature, bin, gain, ok := g.bestSplit(samples, n, pos)
	if !ok {
		return me
	}
	// Partition samples in place: codes ≤ bin to the left.
	codes := g.binned[feature]
	lo, hi := 0, len(samples)
	for lo < hi {
		if codes[samples[lo].row] <= bin {
			lo++
		} else {
			hi--
			samples[lo], samples[hi] = samples[hi], samples[lo]
		}
	}
	if lo == 0 || lo == len(samples) {
		return me // degenerate split; keep the leaf
	}
	g.t.nodes[me].leaf = false
	g.t.nodes[me].feature = feature
	g.t.nodes[me].bin = bin
	if g.total > 0 {
		g.t.importance[feature] += gain * float64(n) / float64(g.total)
	}
	left := g.grow(samples[:lo], depth+1)
	right := g.grow(samples[lo:], depth+1)
	g.t.nodes[me].left = left
	g.t.nodes[me].right = right
	return me
}

// bestSplit searches the (possibly subsampled) features for the split with
// the lowest weighted gini impurity, returning the impurity decrease. n and
// pos are the samples' total and anomalous weights.
//
// Only bins the samples occupy are visited, in ascending order. An empty bin
// would leave the left counts, and so the gain, as they were at the last
// occupied bin; under the strict gain > bestGain rule it could never win, so
// skipping it finds the very split a scan of every boundary finds.
func (g *grower) bestSplit(samples []sample, n, pos int32) (feature int, bin uint8, bestGain float64, ok bool) {
	total := [2]int32{n - pos, pos}
	minLeaf := int32(g.cfg.MinLeaf)

	feats := g.featScratch
	k := len(feats)
	if g.cfg.FeaturesPerSplit > 0 && g.cfg.FeaturesPerSplit < k {
		// Partial Fisher-Yates: move k random features to the front.
		k = g.cfg.FeaturesPerSplit
		for i := 0; i < k; i++ {
			j := i + g.cfg.Rng.Intn(len(feats)-i)
			feats[i], feats[j] = feats[j], feats[i]
		}
	}

	parentGini := gini(total)
	bestGain = 1e-12
	ok = false
	for _, f := range feats[:k] {
		codes := g.binned[f]
		var occupied [MaxBins / 64]uint64
		for _, s := range samples {
			c := codes[s.row]
			g.hist[c][s.y] += s.w
			occupied[c/64] |= 1 << (c % 64)
		}
		var left [2]int32
		for word, set := range occupied {
			for ; set != 0; set &= set - 1 {
				b := word*64 + bits.TrailingZeros64(set)
				h := &g.hist[b]
				left[0] += h[0]
				left[1] += h[1]
				*h = [2]int32{}
				ln := left[0] + left[1]
				rn := n - ln
				if ln < minLeaf || rn < minLeaf {
					continue // includes the last occupied bin, where rn = 0
				}
				right := [2]int32{total[0] - left[0], total[1] - left[1]}
				w := (float64(ln)*gini(left) + float64(rn)*gini(right)) / float64(n)
				if gain := parentGini - w; gain > bestGain {
					bestGain = gain
					feature, bin, ok = f, uint8(b), true
				}
			}
		}
	}
	return feature, bin, bestGain, ok
}

// gini returns the gini impurity of a two-class count.
func gini(c [2]int32) float64 {
	n := float64(c[0] + c[1])
	if n == 0 {
		return 0
	}
	p := float64(c[1]) / n
	return 2 * p * (1 - p)
}

// Prob returns the anomaly probability of the leaf a binned sample reaches.
// at(j) must return the sample's code for feature j.
func (t *Tree) Prob(at func(j int) uint8) float64 {
	i := int32(0)
	for {
		nd := &t.nodes[i]
		if nd.leaf {
			return float64(nd.prob)
		}
		if at(nd.feature) <= nd.bin {
			i = nd.left
		} else {
			i = nd.right
		}
	}
}

// ProbCols classifies sample i of the column-major binned matrix.
func (t *Tree) ProbCols(binned [][]uint8, i int) float64 {
	return t.Prob(func(j int) uint8 { return binned[j][i] })
}

// NumNodes returns the node count (for size assertions and ablations).
func (t *Tree) NumNodes() int { return len(t.nodes) }

// NodeView is the exported description of one tree node, used by ensemble
// code (ml/forest) to flatten many trees into one contiguous node array for
// branch-predictable iterative inference.
type NodeView struct {
	Feature     int
	Bin         uint8 // go left when code ≤ Bin
	Left, Right int32 // child indices within this tree's own node array
	Prob        float32
	Leaf        bool
}

// Node returns the i-th node of the tree's internal (already flattened,
// root-at-0) node array.
func (t *Tree) Node(i int) NodeView {
	nd := &t.nodes[i]
	return NodeView{
		Feature: nd.feature,
		Bin:     nd.bin,
		Left:    nd.left,
		Right:   nd.right,
		Prob:    nd.prob,
		Leaf:    nd.leaf,
	}
}

// Depth returns the maximum depth of the tree (root = 0).
func (t *Tree) Depth() int {
	var walk func(i int32, d int) int
	walk = func(i int32, d int) int {
		nd := &t.nodes[i]
		if nd.leaf {
			return d
		}
		l := walk(nd.left, d+1)
		r := walk(nd.right, d+1)
		if l > r {
			return l
		}
		return r
	}
	if len(t.nodes) == 0 {
		return 0
	}
	return walk(0, 0)
}

// Print writes an indented if-then view of the tree (Fig. 5 style) down to
// maxDepth levels. names give feature names; binner translates bin codes
// back to raw severity thresholds.
func (t *Tree) Print(w io.Writer, names []string, binner *Binner, maxDepth int) {
	var walk func(i int32, depth int, indent string)
	walk = func(i int32, depth int, indent string) {
		nd := &t.nodes[i]
		if nd.leaf || (maxDepth > 0 && depth >= maxDepth) {
			verdict := "Normal"
			if nd.prob >= 0.5 {
				verdict = "Anomaly"
			}
			fmt.Fprintf(w, "%s=> %s (p=%.2f)\n", indent, verdict, nd.prob)
			return
		}
		thr := binner.Threshold(nd.feature, nd.bin)
		fmt.Fprintf(w, "%sif severity[%s] <= %.3g:\n", indent, names[nd.feature], thr)
		walk(nd.left, depth+1, indent+"  ")
		fmt.Fprintf(w, "%selse:\n", indent)
		walk(nd.right, depth+1, indent+"  ")
	}
	if len(t.nodes) > 0 {
		walk(0, 0, "")
	}
}
