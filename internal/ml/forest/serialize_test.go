package forest

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"
)

func TestForestSaveLoadWithinPackage(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cols, labels := makeBlobs(500, 2, rng)
	for _, mv := range []bool{false, true} {
		f := Train(cols, labels, Config{Trees: 7, Seed: 1, MajorityVote: mv})
		var buf bytes.Buffer
		if err := f.Save(&buf); err != nil {
			t.Fatal(err)
		}
		g, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		a, b := f.ProbAll(cols), g.ProbAll(cols)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("majorityVote=%v sample %d: %v vs %v", mv, i, a[i], b[i])
			}
		}
	}
}

func TestForestLoadRejectsEmptyAndVersion(t *testing.T) {
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Error("empty snapshot accepted")
	}
	// A snapshot with no trees must be rejected even if it decodes.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(forestDTO{Version: serializationVersion}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Error("tree-less snapshot accepted")
	}
	// A wrong-version snapshot must be rejected.
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(forestDTO{Version: 99, Trees: [][]byte{{1}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Error("future-version snapshot accepted")
	}
}

// mismatchedSnapshot is a snapshot whose trees split on features its binner
// does not code: a tree that can only split on feature 1 beside a
// one-feature binner.
func mismatchedSnapshot(t testing.TB) []byte {
	cols := [][]float64{make([]float64, 16), make([]float64, 16)}
	labels := make([]bool, 16)
	for i := range labels {
		cols[1][i] = float64(i)
		labels[i] = i >= 12
	}
	wide := Train(cols, labels, Config{Trees: 1, Seed: 1})
	narrow := Train(cols[:1], labels, Config{Trees: 1, Seed: 1})
	dto := forestDTO{Version: serializationVersion}
	for _, tr := range wide.trees {
		b, err := tr.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		dto.Trees = append(dto.Trees, b)
	}
	b, err := narrow.binner.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	dto.Binner = b
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(dto); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestForestLoadRejectsFeatureOutOfRange(t *testing.T) {
	if _, err := Load(bytes.NewReader(mismatchedSnapshot(t))); err == nil {
		t.Error("split on a feature beyond the binner accepted")
	}
}

// FuzzForestLoad: Load never panics or hangs on arbitrary bytes, and every
// forest it accepts scores rows in [0, 1].
//
// The seeds are kept small: the fuzzer's input minimization is quadratic in
// the input length.
func FuzzForestLoad(f *testing.F) {
	rng := rand.New(rand.NewSource(23))
	cols, labels := makeBlobs(12, 0, rng)
	for _, mv := range []bool{false, true} {
		var buf bytes.Buffer
		if err := Train(cols, labels, Config{Trees: 1, Seed: 1, MajorityVote: mv}).Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(mismatchedSnapshot(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, v := range []float64{math.Inf(-1), -1, 0, 0.5, 3, math.Inf(1), math.NaN()} {
			row := make([]float64, m.NumFeatures())
			for j := range row {
				row[j] = v
			}
			if p := m.Prob(row); !(p >= 0 && p <= 1) {
				t.Fatalf("accepted forest scored %v on row %v", p, row)
			}
		}
	})
}
