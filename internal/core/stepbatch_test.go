package core

// StepBatch is the batched form of the online hot path; these tests pin it
// to the sequential contract: for any chunking of the input stream, the
// verdict sequence must be bit-identical to per-point Step calls — including
// under a duration filter (whose state advances point by point) and when a
// detector panics mid-batch (degradation must land on the same point).

import (
	"testing"
	"time"

	"opprentice/internal/detectors"
	"opprentice/internal/faultinject"
	"opprentice/internal/kpigen"
	"opprentice/internal/ml/forest"
)

// twinMonitors builds two identical monitors over the same generated KPI
// (deterministic training) plus a continuation stream to score.
func twinMonitors(t *testing.T, cfg MonitorConfig, extra func() detectors.Detector) (a, b *Monitor, future []float64) {
	t.Helper()
	p := kpigen.PV(kpigen.Small)
	p.Interval = time.Hour
	p.Weeks = 10
	d := kpigen.Generate(p, 77)
	build := func() *Monitor {
		dets := smallRegistry(t)
		if extra != nil {
			dets = append(dets, extra())
		}
		mon, err := NewMonitor(d.Series, d.Labels, dets, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return mon
	}
	a, b = build(), build()
	cont := kpigen.Generate(p, 78)
	return a, b, cont.Series.Values[:300]
}

// chunked feeds values through StepBatch in uneven chunks and returns the
// concatenated verdicts.
func chunked(m *Monitor, values []float64) []Verdict {
	sizes := []int{1, 2, 7, 32, 3, 64, 5}
	var out []Verdict
	for i, s := 0, 0; i < len(values); s++ {
		n := sizes[s%len(sizes)]
		if i+n > len(values) {
			n = len(values) - i
		}
		out = m.StepBatch(values[i:i+n], out)
		i += n
	}
	return out
}

func TestStepBatchMatchesStep(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  MonitorConfig
	}{
		{"plain", MonitorConfig{Forest: forest.Config{Trees: 12, Seed: 3}, SkipInitialCV: true}},
		{"duration-filter", MonitorConfig{Forest: forest.Config{Trees: 12, Seed: 3}, SkipInitialCV: true, MinDuration: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seq, bat, future := twinMonitors(t, tc.cfg, nil)
			want := make([]Verdict, 0, len(future))
			for _, v := range future {
				want = append(want, seq.Step(v))
			}
			got := chunked(bat, future)
			if len(got) != len(want) {
				t.Fatalf("got %d verdicts, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("verdict %d: StepBatch %+v, Step %+v", i, got[i], want[i])
				}
			}
		})
	}
}

func TestStepBatchSandboxesMidBatchPanic(t *testing.T) {
	cfg := MonitorConfig{Forest: forest.Config{Trees: 12, Seed: 3}, SkipInitialCV: true}
	// The faulty configuration survives training extraction and the first
	// 150 online points, then panics mid-stream — inside a StepBatch chunk.
	histLen := 10 * 168 // 10 weeks of hourly points
	mk := func() detectors.Detector {
		return &faultinject.PanickingDetector{ConfigName: "boom(batch)", PanicAfter: histLen + 150}
	}
	seq, bat, future := twinMonitors(t, cfg, mk)
	want := make([]Verdict, 0, len(future))
	for _, v := range future {
		want = append(want, seq.Step(v))
	}
	got := chunked(bat, future)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("verdict %d: StepBatch %+v, Step %+v", i, got[i], want[i])
		}
	}
	if seq.DetectorPanics() != 1 || bat.DetectorPanics() != seq.DetectorPanics() {
		t.Fatalf("panics: sequential %d, batched %d, want 1 each", seq.DetectorPanics(), bat.DetectorPanics())
	}
	if bat.DegradedDetectors() != 1 {
		t.Fatalf("batched monitor degraded %d detectors, want 1", bat.DegradedDetectors())
	}
}

// TestStepTrainedZeroAllocs pins the per-point hot path: once its batch
// scratch is warm, a trained Monitor.Step — a StepBatch of one — allocates
// nothing, with the EWMA threshold and with the EVT one that moves per point.
func TestStepTrainedZeroAllocs(t *testing.T) {
	for _, kind := range []PredictorKind{PredictEWMA, PredictEVT} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := MonitorConfig{Forest: forest.Config{Trees: 12, Seed: 3}, SkipInitialCV: true, Predictor: kind}
			mon, _, future := twinMonitors(t, cfg, nil)
			next := 0
			step := func() {
				mon.Step(future[next%len(future)])
				next++
			}
			step()
			if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
				t.Fatalf("trained %v Step allocates %.1f objects per point, want 0", kind, allocs)
			}
		})
	}
}
