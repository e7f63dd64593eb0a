package core

// Training-kernel benchmarks at the size the engine trains a series with by
// default (the golden fixture's size): 13 weeks of hourly PV data, the full
// detector registry (133 configurations), 60 trees.
//
//   - Grow:                one tree on one bootstrap of the binned features.
//   - CrossValidateCThld:  the five-fold cThld seed of a cold train.
//   - NewMonitorCold:      a whole cold train (extraction, model, CV).
//   - RetrainWeekly:       one weekly RetrainSnapshotTyped onto a 13th week
//                          from a monitor trained on 12 (cold extraction).

import (
	"math"
	"math/rand"
	"testing"

	"opprentice/internal/kpigen"
	"opprentice/internal/ml/tree"
	"opprentice/internal/timeseries"
)

// benchFeatures extracts the imputed feature matrix of d.
func benchFeatures(b *testing.B, d *kpigen.Dataset) [][]float64 {
	b.Helper()
	feats, err := Extract(d.Series, benchRegistry(b), ExtractConfig{})
	if err != nil {
		b.Fatal(err)
	}
	return feats.ImputedFull()
}

func BenchmarkGrow(b *testing.B) {
	d := goldenKPI(benchDataSeed)
	cols := benchFeatures(b, d)
	binned := tree.NewBinner(cols, tree.MaxBins).Bin(cols)
	n := len(d.Labels)
	fps := int(math.Ceil(math.Sqrt(float64(len(cols)))))
	idx := make([]int, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		for k := range idx {
			idx[k] = rng.Intn(n)
		}
		tree.Grow(binned, d.Labels, idx, tree.Config{FeaturesPerSplit: fps, Rng: rng})
	}
}

func BenchmarkCrossValidateCThld(b *testing.B) {
	d := goldenKPI(benchDataSeed)
	cols := benchFeatures(b, d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CrossValidateCThld(cols, d.Labels, 5, 1000, goldenDefaults.Forest, goldenDefaults.Preference)
	}
}

func BenchmarkNewMonitorCold(b *testing.B) {
	d := goldenKPI(benchDataSeed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewMonitor(d.Series, d.Labels.Clone(), benchRegistry(b), goldenDefaults); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRetrainWeekly(b *testing.B) {
	const ppw = 168
	d := goldenKPI(benchDataSeed)
	head := timeseries.New(d.Series.Name, d.Series.Start, d.Series.Interval)
	head.Values = d.Series.Values[:d.Series.Len()-ppw]
	mon, err := NewMonitor(head, d.Labels[:head.Len()].Clone(), benchRegistry(b), goldenDefaults)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mon.RetrainSnapshotTyped(d.Series, d.Labels.Clone(), nil, benchRegistry(b), nil); err != nil {
			b.Fatal(err)
		}
	}
}
