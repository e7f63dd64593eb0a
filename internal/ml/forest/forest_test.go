package forest

import (
	"bytes"
	"math/rand"
	"testing"

	"opprentice/internal/ml/tree"
	"opprentice/internal/stats"
)

// makeBlobs builds a 2-feature dataset where anomalies sit in a separable
// region, plus optional noise features.
func makeBlobs(n, noiseFeatures int, rng *rand.Rand) (cols [][]float64, labels []bool) {
	cols = make([][]float64, 2+noiseFeatures)
	for j := range cols {
		cols[j] = make([]float64, n)
	}
	labels = make([]bool, n)
	for i := 0; i < n; i++ {
		anomalous := rng.Intn(10) == 0
		labels[i] = anomalous
		if anomalous {
			cols[0][i] = 4 + rng.NormFloat64()
			cols[1][i] = 4 + rng.NormFloat64()
		} else {
			cols[0][i] = rng.NormFloat64()
			cols[1][i] = rng.NormFloat64()
		}
		for j := 2; j < len(cols); j++ {
			cols[j][i] = rng.NormFloat64()
		}
	}
	return cols, labels
}

func TestForestSeparatesBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cols, labels := makeBlobs(2000, 0, rng)
	f := Train(cols, labels, Config{Trees: 30, Seed: 1})
	testCols, testLabels := makeBlobs(1000, 0, rng)
	scores := f.ProbAll(testCols)
	if auc := stats.AUCPR(scores, testLabels); auc < 0.9 {
		t.Errorf("AUCPR = %v, want ≥ 0.9", auc)
	}
}

// The paper's central ML claim: random forests stay accurate when many
// irrelevant/redundant features are added (Fig. 10).
func TestForestRobustToIrrelevantFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cols, labels := makeBlobs(2000, 40, rng)
	f := Train(cols, labels, Config{Trees: 40, Seed: 2})
	testCols, testLabels := makeBlobs(1000, 40, rng)
	scores := f.ProbAll(testCols)
	if auc := stats.AUCPR(scores, testLabels); auc < 0.85 {
		t.Errorf("AUCPR with 40 noise features = %v, want ≥ 0.85", auc)
	}
}

func TestForestDeterministicSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cols, labels := makeBlobs(500, 2, rng)
	a := Train(cols, labels, Config{Trees: 10, Seed: 9})
	b := Train(cols, labels, Config{Trees: 10, Seed: 9})
	sa := a.ProbAll(cols)
	sb := b.ProbAll(cols)
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("same seed diverges at sample %d: %v vs %v", i, sa[i], sb[i])
		}
	}
}

func TestForestProbMatchesProbAll(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cols, labels := makeBlobs(400, 1, rng)
	f := Train(cols, labels, Config{Trees: 15, Seed: 4})
	all := f.ProbAll(cols)
	row := make([]float64, len(cols))
	for i := 0; i < 20; i++ {
		for j := range cols {
			row[j] = cols[j][i]
		}
		if got := f.Prob(row); got != all[i] {
			t.Fatalf("Prob(%d) = %v, ProbAll = %v", i, got, all[i])
		}
	}
}

func TestForestProbabilityIsVoteFraction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cols, labels := makeBlobs(500, 0, rng)
	f := Train(cols, labels, Config{Trees: 40, Seed: 5, MajorityVote: true})
	if f.NumTrees() != 40 {
		t.Fatalf("NumTrees = %d", f.NumTrees())
	}
	scores := f.ProbAll(cols)
	for i, s := range scores {
		if s < 0 || s > 1 {
			t.Fatalf("score[%d] = %v outside [0,1]", i, s)
		}
		// Vote fractions are multiples of 1/40.
		scaled := s * 40
		if diff := scaled - float64(int(scaled+0.5)); diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("score[%d] = %v is not a /40 vote fraction", i, s)
		}
	}
}

func TestForestPanicsOnBadShapes(t *testing.T) {
	cases := []func(){
		func() { Train(nil, nil, Config{}) },
		func() { Train([][]float64{{1, 2}}, []bool{true}, Config{}) },
		func() { Train([][]float64{{1, 2}, {1}}, []bool{true, false}, Config{}) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: want panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestForestProbPanicsOnRowShape(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cols, labels := makeBlobs(100, 0, rng)
	f := Train(cols, labels, Config{Trees: 5, Seed: 6})
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	f.Prob([]float64{1})
}

func TestForestSingleClassTrainsAndPredictsThatClass(t *testing.T) {
	cols := [][]float64{{1, 2, 3, 4, 5}}
	labels := []bool{false, false, false, false, false}
	f := Train(cols, labels, Config{Trees: 5, Seed: 7})
	if got := f.Prob([]float64{3}); got != 0 {
		t.Errorf("all-normal training: prob = %v, want 0", got)
	}
}

func TestImportancesIdentifyInformativeFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cols, labels := makeBlobs(1500, 10, rng) // features 0,1 informative, 10 noise
	f := Train(cols, labels, Config{Trees: 25, Seed: 31})
	imp := f.Importances()
	if len(imp) != len(cols) {
		t.Fatalf("importances len = %d", len(imp))
	}
	sum := 0.0
	for _, v := range imp {
		sum += v
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("importances sum = %v, want 1", sum)
	}
	informative := imp[0] + imp[1]
	if informative < 0.5 {
		t.Errorf("informative features carry %v of importance, want majority", informative)
	}
}

// TestTrainPresortedMatchesMaterialized: training in place on the rows
// outside [lo, hi) saves the same bytes as training on those rows copied out.
func TestTrainPresortedMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cols, labels := makeBlobs(300, 3, rng)
	ps := tree.Sort(cols)
	for _, r := range [][2]int{{0, 0}, {0, 60}, {120, 180}, {240, 300}, {150, 150}} {
		lo, hi := r[0], r[1]
		fold := make([][]float64, len(cols))
		for j, col := range cols {
			fold[j] = append(append([]float64(nil), col[:lo]...), col[hi:]...)
		}
		foldLabels := append(append([]bool(nil), labels[:lo]...), labels[hi:]...)
		cfg := Config{Trees: 8, Seed: 5, MinLeaf: 2}
		var want, got bytes.Buffer
		if err := Train(fold, foldLabels, cfg).Save(&want); err != nil {
			t.Fatal(err)
		}
		if err := TrainPresorted(ps, labels, lo, hi, cfg).Save(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Errorf("held out [%d, %d): in-place forest differs from the materialized one", lo, hi)
		}
	}
}
