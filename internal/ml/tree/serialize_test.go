package tree

import (
	"math"
	"math/rand"
	"testing"
)

func TestTreeMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cols, labels := makeXOR(300, rng)
	tr, binner, binned := trainTree(cols, labels, Config{}, 32)

	data, err := tr.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Tree
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != tr.NumNodes() {
		t.Fatalf("nodes = %d, want %d", back.NumNodes(), tr.NumNodes())
	}
	for i := 0; i < 300; i++ {
		if got, want := back.ProbCols(binned, i), tr.ProbCols(binned, i); got != want {
			t.Fatalf("sample %d: %v vs %v", i, got, want)
		}
	}
	_ = binner
}

func TestTreeUnmarshalRejectsCorruptChildren(t *testing.T) {
	// A node pointing outside the node array must be rejected.
	corrupt := []nodeDTO{{Feature: 0, Bin: 1, Left: 5, Right: 6, Leaf: false}}
	good := &Tree{nodes: []node{{leaf: true, prob: 1}}}
	data, err := good.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	_ = data
	// Build corrupt bytes via a throwaway tree marshal of the DTO shape.
	bad := &Tree{nodes: []node{{feature: 0, bin: 1, left: 5, right: 6, leaf: false}}}
	raw, err := bad.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Tree
	if err := back.UnmarshalBinary(raw); err == nil {
		t.Error("corrupt children accepted")
	}
	_ = corrupt
}

func TestTreeUnmarshalGarbage(t *testing.T) {
	var tr Tree
	if err := tr.UnmarshalBinary([]byte{1, 2, 3}); err == nil {
		t.Error("garbage accepted")
	}
}

func TestBinnerMarshalRoundTrip(t *testing.T) {
	cols := [][]float64{{1, 2, 3, 4, 5, 6, 7, 8}}
	b := NewBinner(cols, 8)
	data, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Binner
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back.NumFeatures() != 1 {
		t.Fatalf("features = %d", back.NumFeatures())
	}
	for _, v := range []float64{0.5, 2.5, 5.5, 99} {
		if back.Code(0, v) != b.Code(0, v) {
			t.Fatalf("code(%v) differs after round trip", v)
		}
	}
	if err := back.UnmarshalBinary([]byte("junk")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestTreeUnmarshalRejectsCorruptNodes(t *testing.T) {
	cases := map[string][]node{
		"empty":            nil,
		"self loop":        {{feature: 0, left: 0, right: 1}, {leaf: true}},
		"back to ancestor": {{feature: 0, left: 1, right: 2}, {feature: 0, left: 0, right: 2}, {leaf: true}},
		"negative feature": {{feature: -1, left: 1, right: 2}, {leaf: true}, {leaf: true}},
		"leaf prob > 1":    {{leaf: true, prob: 1.5}},
		"leaf prob NaN":    {{leaf: true, prob: float32(math.NaN())}},
	}
	for name, nodes := range cases {
		raw, err := (&Tree{nodes: nodes}).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var back Tree
		if err := back.UnmarshalBinary(raw); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestBinnerUnmarshalRejectsCorruptEdges(t *testing.T) {
	tooMany := make([]float64, MaxBins)
	for i := range tooMany {
		tooMany[i] = float64(i)
	}
	cases := map[string][][]float64{
		"too many edges": {tooMany},
		"unsorted":       {{1, 3, 2}},
		"repeated":       {{1, 1}},
		"NaN":            {{0, math.NaN()}},
	}
	for name, edges := range cases {
		raw, err := (&Binner{edges: edges}).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var back Binner
		if err := back.UnmarshalBinary(raw); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	raw, err := (&Binner{edges: [][]float64{tooMany[:MaxBins-1], {math.Inf(-1), 0, math.Inf(1)}, nil}}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Binner
	if err := back.UnmarshalBinary(raw); err != nil {
		t.Errorf("valid edges rejected: %v", err)
	}
}
