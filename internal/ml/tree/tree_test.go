package tree

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestBinnerCodesMonotone(t *testing.T) {
	col := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	b := NewBinner([][]float64{col}, 4)
	prev := uint8(0)
	for _, v := range col {
		c := b.Code(0, v)
		if c < prev {
			t.Fatalf("codes not monotone: %v after %v", c, prev)
		}
		prev = c
	}
	if b.Code(0, -100) != 0 {
		t.Error("below-range value should get code 0")
	}
	if got := b.Code(0, 1e9); int(got) > len(colEdges(b, 0)) {
		t.Error("above-range code exceeds bucket count")
	}
}

func colEdges(b *Binner, j int) []float64 { return b.edges[j] }

func TestBinnerNaN(t *testing.T) {
	b := NewBinner([][]float64{{1, 2, math.NaN(), 4}}, 4)
	if b.Code(0, math.NaN()) != 0 {
		t.Error("NaN should map to bucket 0")
	}
}

func TestBinnerThreshold(t *testing.T) {
	b := NewBinner([][]float64{{1, 2, 3, 4}}, 4)
	edges := colEdges(b, 0)
	if len(edges) == 0 {
		t.Fatal("no edges learned")
	}
	if got := b.Threshold(0, 0); got != edges[0] {
		t.Errorf("Threshold(0,0) = %v, want %v", got, edges[0])
	}
	if !math.IsInf(b.Threshold(0, 255), 1) {
		t.Error("last bucket threshold should be +Inf")
	}
}

func TestBinnerCodeRespectsThreshold(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		col := make([]float64, 200)
		for i := range col {
			col[i] = rng.NormFloat64() * 10
		}
		b := NewBinner([][]float64{col}, 32)
		for _, v := range col {
			c := b.Code(0, v)
			// v must be ≤ its bucket's upper boundary and > the previous one.
			if v > b.Threshold(0, c) {
				return false
			}
			if c > 0 && v <= b.Threshold(0, c-1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBinnerBinPanicsOnShape(t *testing.T) {
	b := NewBinner([][]float64{{1, 2}}, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	b.Bin([][]float64{{1}, {2}})
}

// makeXOR builds a dataset a single linear split cannot solve but a depth-2
// tree can.
func makeXOR(n int, rng *rand.Rand) (cols [][]float64, labels []bool) {
	cols = [][]float64{make([]float64, n), make([]float64, n)}
	labels = make([]bool, n)
	for i := 0; i < n; i++ {
		a, b := rng.Float64(), rng.Float64()
		cols[0][i], cols[1][i] = a, b
		labels[i] = (a > 0.5) != (b > 0.5)
	}
	return cols, labels
}

func trainTree(cols [][]float64, labels []bool, cfg Config, bins int) (*Tree, *Binner, [][]uint8) {
	b := NewBinner(cols, bins)
	binned := b.Bin(cols)
	idx := make([]int, len(labels))
	for i := range idx {
		idx[i] = i
	}
	return Grow(binned, labels, idx, cfg), b, binned
}

func TestTreeSolvesXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cols, labels := makeXOR(600, rng)
	tr, _, binned := trainTree(cols, labels, Config{}, 64)
	correct := 0
	for i := range labels {
		pred := tr.ProbCols(binned, i) >= 0.5
		if pred == labels[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(labels)); acc < 0.97 {
		t.Errorf("XOR training accuracy = %v, want ≥ 0.97", acc)
	}
}

func TestTreePureLeafStopsGrowing(t *testing.T) {
	cols := [][]float64{{1, 2, 3, 4}}
	labels := []bool{true, true, true, true}
	tr, _, _ := trainTree(cols, labels, Config{}, 8)
	if tr.NumNodes() != 1 {
		t.Errorf("pure data should give a single leaf, got %d nodes", tr.NumNodes())
	}
	if p := tr.Prob(func(int) uint8 { return 0 }); p != 1 {
		t.Errorf("pure anomaly leaf prob = %v, want 1", p)
	}
}

func TestTreeMaxDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cols, labels := makeXOR(500, rng)
	tr, _, _ := trainTree(cols, labels, Config{MaxDepth: 1}, 64)
	if d := tr.Depth(); d > 1 {
		t.Errorf("depth = %d, want ≤ 1", d)
	}
}

func TestTreeMinLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cols, labels := makeXOR(300, rng)
	tr, _, binned := trainTree(cols, labels, Config{MinLeaf: 50}, 64)
	// Count samples per leaf.
	counts := map[float64]int{}
	_ = counts
	// Instead verify no leaf was reached by fewer than MinLeaf training
	// points: approximate by checking the tree is small.
	if tr.NumNodes() > 2*300/50+1 {
		t.Errorf("MinLeaf=50 tree has %d nodes, too many", tr.NumNodes())
	}
	_ = binned
}

func TestTreeFeatureSubsamplingNeedsRng(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	Grow([][]uint8{{0, 1}}, []bool{false, true}, []int{0, 1}, Config{FeaturesPerSplit: 1})
}

func TestTreePrintShowsRulesAndVerdicts(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cols, labels := makeXOR(400, rng)
	tr, binner, _ := trainTree(cols, labels, Config{}, 64)
	var sb strings.Builder
	tr.Print(&sb, []string{"detA", "detB"}, binner, 2)
	out := sb.String()
	if !strings.Contains(out, "severity[detA]") && !strings.Contains(out, "severity[detB]") {
		t.Errorf("printed tree lacks feature names:\n%s", out)
	}
	if !strings.Contains(out, "Anomaly") && !strings.Contains(out, "Normal") {
		t.Errorf("printed tree lacks verdicts:\n%s", out)
	}
}

func TestTreeDeterministicWithSeed(t *testing.T) {
	rng1 := rand.New(rand.NewSource(5))
	cols, labels := makeXOR(300, rng1)
	grow := func(seed int64) *Tree {
		b := NewBinner(cols, 32)
		binned := b.Bin(cols)
		idx := make([]int, len(labels))
		for i := range idx {
			idx[i] = i
		}
		return Grow(binned, labels, idx, Config{
			FeaturesPerSplit: 1,
			Rng:              rand.New(rand.NewSource(seed)),
		})
	}
	a, b := grow(7), grow(7)
	if a.NumNodes() != b.NumNodes() {
		t.Error("same seed should grow identical trees")
	}
}

// Fully grown trees must perfectly fit any consistent training set (bins
// permitting) — the paper's "fully grown without pruning".
func TestFullyGrownFitsTrainingData(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 400
	cols := [][]float64{make([]float64, n), make([]float64, n), make([]float64, n)}
	labels := make([]bool, n)
	for i := 0; i < n; i++ {
		for j := range cols {
			cols[j][i] = rng.NormFloat64()
		}
		labels[i] = cols[0][i]+cols[1][i]*cols[2][i] > 0.3
	}
	tr, _, binned := trainTree(cols, labels, Config{}, 256)
	wrong := 0
	for i := range labels {
		if (tr.ProbCols(binned, i) >= 0.5) != labels[i] {
			wrong++
		}
	}
	// A handful of bin-collision errors are acceptable.
	if wrong > n/50 {
		t.Errorf("fully grown tree misfits %d/%d training points", wrong, n)
	}
}

// refGrow is a verbatim copy of the original grower: a gini evaluation at
// every bin boundary below the node's largest code, one histogram slot per
// raw bootstrap draw. TestGrowMatchesReference holds the optimised grower
// to it bit for bit.
func refGrow(binned [][]uint8, labels []bool, idx []int, cfg Config) *Tree {
	if cfg.MinLeaf < 1 {
		cfg.MinLeaf = 1
	}
	t := &Tree{importance: make([]float64, len(binned))}
	g := refGrower{binned: binned, labels: labels, cfg: cfg, t: t, total: len(idx)}
	g.featScratch = make([]int, len(binned))
	for j := range g.featScratch {
		g.featScratch[j] = j
	}
	g.grow(idx, 0)
	return t
}

type refGrower struct {
	binned      [][]uint8
	labels      []bool
	cfg         Config
	t           *Tree
	total       int
	featScratch []int
	hist        [MaxBins][2]int32
}

func (g *refGrower) grow(idx []int, depth int) int32 {
	pos := 0
	for _, i := range idx {
		if g.labels[i] {
			pos++
		}
	}
	n := len(idx)
	prob := float32(pos) / float32(n)
	me := int32(len(g.t.nodes))
	g.t.nodes = append(g.t.nodes, node{leaf: true, prob: prob})
	if pos == 0 || pos == n || n < 2*g.cfg.MinLeaf ||
		(g.cfg.MaxDepth > 0 && depth >= g.cfg.MaxDepth) {
		return me
	}
	feature, bin, gain, ok := g.bestSplit(idx, pos)
	if !ok {
		return me
	}
	codes := g.binned[feature]
	lo, hi := 0, n
	for lo < hi {
		if codes[idx[lo]] <= bin {
			lo++
		} else {
			hi--
			idx[lo], idx[hi] = idx[hi], idx[lo]
		}
	}
	if lo == 0 || lo == n {
		return me
	}
	g.t.nodes[me].leaf = false
	g.t.nodes[me].feature = feature
	g.t.nodes[me].bin = bin
	if g.total > 0 {
		g.t.importance[feature] += gain * float64(n) / float64(g.total)
	}
	left := g.grow(idx[:lo], depth+1)
	right := g.grow(idx[lo:], depth+1)
	g.t.nodes[me].left = left
	g.t.nodes[me].right = right
	return me
}

func (g *refGrower) bestSplit(idx []int, pos int) (feature int, bin uint8, bestGain float64, ok bool) {
	n := len(idx)
	total := [2]int32{int32(n - pos), int32(pos)}

	feats := g.featScratch
	k := len(feats)
	if g.cfg.FeaturesPerSplit > 0 && g.cfg.FeaturesPerSplit < k {
		k = g.cfg.FeaturesPerSplit
		for i := 0; i < k; i++ {
			j := i + g.cfg.Rng.Intn(len(feats)-i)
			feats[i], feats[j] = feats[j], feats[i]
		}
	}

	parentGini := refGini(total)
	bestGain = 1e-12
	ok = false
	for _, f := range feats[:k] {
		codes := g.binned[f]
		maxBin := uint8(0)
		for b := range g.hist {
			g.hist[b][0], g.hist[b][1] = 0, 0
		}
		for _, i := range idx {
			c := codes[i]
			if g.labels[i] {
				g.hist[c][1]++
			} else {
				g.hist[c][0]++
			}
			if c > maxBin {
				maxBin = c
			}
		}
		var left [2]int32
		for b := 0; b < int(maxBin); b++ {
			left[0] += g.hist[b][0]
			left[1] += g.hist[b][1]
			ln := left[0] + left[1]
			rn := int32(n) - ln
			if ln < int32(g.cfg.MinLeaf) || rn < int32(g.cfg.MinLeaf) {
				continue
			}
			right := [2]int32{total[0] - left[0], total[1] - left[1]}
			w := (float64(ln)*refGini(left) + float64(rn)*refGini(right)) / float64(n)
			if gain := parentGini - w; gain > bestGain {
				bestGain = gain
				feature, bin, ok = f, uint8(b), true
			}
		}
	}
	return feature, bin, bestGain, ok
}

func refGini(c [2]int32) float64 {
	n := float64(c[0] + c[1])
	if n == 0 {
		return 0
	}
	p := float64(c[1]) / n
	return 2 * p * (1 - p)
}

// sameTree reports the first difference between two trees' nodes and
// importances, compared bit for bit.
func sameTree(a, b *Tree) string {
	if len(a.nodes) != len(b.nodes) {
		return fmt.Sprintf("%d nodes vs %d", len(a.nodes), len(b.nodes))
	}
	for i := range a.nodes {
		x, y := a.nodes[i], b.nodes[i]
		if x.feature != y.feature || x.bin != y.bin || x.left != y.left || x.right != y.right ||
			x.leaf != y.leaf || math.Float32bits(x.prob) != math.Float32bits(y.prob) {
			return fmt.Sprintf("node %d: %+v vs %+v", i, x, y)
		}
	}
	for j := range a.importance {
		if math.Float64bits(a.importance[j]) != math.Float64bits(b.importance[j]) {
			return fmt.Sprintf("importance[%d]: %v vs %v", j, a.importance[j], b.importance[j])
		}
	}
	return ""
}

// diffMatrix builds a random column-major matrix mixing the column shapes
// that stress the split search: continuous, heavily tied (few distinct
// values), single-valued, all-NaN, and partly NaN columns.
func diffMatrix(rng *rand.Rand, n, d int) [][]float64 {
	cols := make([][]float64, d)
	for j := range cols {
		col := make([]float64, n)
		kind := rng.Intn(5)
		levels := 1 + rng.Intn(4)
		for i := range col {
			switch kind {
			case 0:
				col[i] = rng.NormFloat64()
			case 1:
				col[i] = float64(rng.Intn(levels))
			case 2:
				col[i] = 3
			case 3:
				col[i] = math.NaN()
			default:
				if rng.Intn(3) == 0 {
					col[i] = math.NaN()
				} else {
					col[i] = rng.ExpFloat64()
				}
			}
		}
		cols[j] = col
	}
	return cols
}

func TestGrowMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(400)
		d := 1 + rng.Intn(12)
		cols := diffMatrix(rng, n, d)
		labels := make([]bool, n)
		rate := rng.Float64()
		for i := range labels {
			labels[i] = rng.Float64() < rate
		}
		bins := []int{2, 7, 64, MaxBins}[rng.Intn(4)]
		binned := NewBinner(cols, bins).Bin(cols)

		// Bootstrap draws; every third case draws from a handful of rows so
		// the sample is dominated by duplicates.
		idx := make([]int, n)
		span := n
		if seed%3 == 0 {
			span = 1 + rng.Intn(8)
		}
		for i := range idx {
			idx[i] = rng.Intn(span)
		}
		cfg := Config{MinLeaf: 1 + rng.Intn(4), MaxDepth: rng.Intn(6)}
		fps := 0
		if d > 1 && rng.Intn(2) == 0 {
			fps = 1 + rng.Intn(d-1)
		}
		rseed := rng.Int63()

		ref := cfg
		ref.FeaturesPerSplit, ref.Rng = fps, rand.New(rand.NewSource(rseed))
		want := refGrow(binned, labels, append([]int(nil), idx...), ref)
		got := cfg
		got.FeaturesPerSplit, got.Rng = fps, rand.New(rand.NewSource(rseed))
		have := Grow(binned, labels, append([]int(nil), idx...), got)
		if diff := sameTree(want, have); diff != "" {
			t.Fatalf("seed %d (n=%d d=%d bins=%d %+v fps=%d): %s", seed, n, d, bins, cfg, fps, diff)
		}
		// The same RNG state afterwards: the optimised grower draws exactly
		// the features the reference drew.
		if fps > 0 && ref.Rng.Int63() != got.Rng.Int63() {
			t.Fatalf("seed %d: RNG streams diverged", seed)
		}
	}
}
