package engine

// Allocation regression gates for the ingest hot path. The serving claim
// rests on Append staying allocation-free per point: feature rows, verdict
// buffers and scoring scratch are all pooled or reused, so any
// new per-point allocation is a regression that should fail go test, not
// only show up in benchmarks.
//
// AllocsPerRun's result is the integer mean over many runs, so the rare
// amortized slice growth of the append-only series arrays (a handful of
// doublings across hundreds of runs) rounds to zero, while a real per-point
// allocation reads >= 1.

import (
	"context"
	"testing"
	"time"

	"opprentice/internal/core"
	"opprentice/internal/kpigen"
)

func TestAppendUntrainedZeroAllocs(t *testing.T) {
	e := newTestEngine(t)
	if err := e.Create("pv", SeriesConfig{IntervalSeconds: 60, Start: testStart}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	pts := []Point{{Value: 1}}
	var vbuf []Verdict
	// Warm-up establishes slice capacity and the admission fast path.
	for i := 0; i < 64; i++ {
		if _, err := e.Append(ctx, "pv", pts, vbuf); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := e.Append(ctx, "pv", pts, vbuf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("untrained Append allocates %.1f objects per batch, want 0", allocs)
	}
}

func TestAppendTrainedZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	e, rest, _ := trainableSeries(t, 9)
	ctx := context.Background()
	// The verdict buffer is recycled from the result like the service layer's
	// sync.Pool does; a fresh nil buffer per call would cost one allocation.
	vbuf := make([]Verdict, 0, 4)
	pts := make([]Point, 1)
	next := 0
	step := func() {
		pts[0].Value = rest[next%len(rest)]
		res, err := e.Append(ctx, "pv", pts, vbuf)
		if err != nil {
			t.Fatal(err)
		}
		vbuf = res.Verdicts
		next++
	}
	// Warm-up grows the monitor's batch scratch and the alarm ring.
	for i := 0; i < 32; i++ {
		step()
	}
	allocs := testing.AllocsPerRun(300, step)
	if allocs != 0 {
		t.Fatalf("trained Append allocates %.1f objects per batch, want 0", allocs)
	}
}

// trainableTypedSeries mirrors trainableSeries but creates the series with
// the given predictor config and labels it with typed windows (derived from
// kpigen's injection schedule), so training fits the anomaly-type head too.
func trainableTypedSeries(t *testing.T, weeks int, scfg SeriesConfig) (*Engine, []float64, int) {
	t.Helper()
	p := kpigen.PV(kpigen.Small)
	p.Interval = time.Hour
	p.Weeks = weeks
	d := kpigen.Generate(p, 91)
	ppw, err := d.Series.PointsPerWeek()
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t)
	scfg.IntervalSeconds = 3600
	scfg.Start = testStart
	scfg.Trees = 10
	if err := e.Create("pv", scfg); err != nil {
		t.Fatal(err)
	}
	boot := (weeks - 1) * ppw
	pts := make([]Point, boot)
	for i := range pts {
		pts[i] = Point{Value: d.Series.Values[i]}
	}
	if _, err := e.Append(context.Background(), "pv", pts, nil); err != nil {
		t.Fatal(err)
	}
	var windows []Window
	for _, a := range d.Anomalies {
		if a.Window.End <= boot {
			windows = append(windows, Window{
				Start:     a.Window.Start,
				End:       a.Window.End,
				Anomalous: true,
				Type:      core.AnomalyClass(kpigen.ClassOf(a.Type)).Wire(),
			})
		}
	}
	if _, err := e.Label(context.Background(), "pv", windows); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Train(context.Background(), "pv"); err != nil {
		t.Fatal(err)
	}
	return e, d.Series.Values[boot:], boot
}

// TestAppendTrainedEVTZeroAllocs extends the trained-path allocation gate to
// the EVT predictor: the per-point POT threshold update (ObserveScore +
// Predict) is pure arithmetic and must not cost an allocation.
func TestAppendTrainedEVTZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	e, rest, _ := trainableTypedSeries(t, 9, SeriesConfig{CThldPredictor: "evt"})
	ctx := context.Background()
	vbuf := make([]Verdict, 0, 4)
	pts := make([]Point, 1)
	next := 0
	step := func() {
		pts[0].Value = rest[next%len(rest)]
		res, err := e.Append(ctx, "pv", pts, vbuf)
		if err != nil {
			t.Fatal(err)
		}
		vbuf = res.Verdicts
		next++
	}
	for i := 0; i < 32; i++ {
		step()
	}
	allocs := testing.AllocsPerRun(300, step)
	if allocs != 0 {
		t.Fatalf("trained EVT Append allocates %.1f objects per batch, want 0", allocs)
	}
}

// TestAppendTrainedTypedZeroAllocs extends the gate to the anomaly-type head:
// classifying an anomalous point and stamping Verdict.Type / Alarm.Type
// (constant wire strings) must not allocate either.
func TestAppendTrainedTypedZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	e, rest, _ := trainableTypedSeries(t, 9, SeriesConfig{})
	st, err := e.Status(context.Background(), "pv")
	if err != nil {
		t.Fatal(err)
	}
	if !st.TypedModel {
		t.Fatal("typed windows did not produce a type head")
	}
	ctx := context.Background()
	vbuf := make([]Verdict, 0, 4)
	pts := make([]Point, 1)
	next := 0
	step := func() {
		pts[0].Value = rest[next%len(rest)]
		res, err := e.Append(ctx, "pv", pts, vbuf)
		if err != nil {
			t.Fatal(err)
		}
		vbuf = res.Verdicts
		next++
	}
	for i := 0; i < 32; i++ {
		step()
	}
	allocs := testing.AllocsPerRun(300, step)
	if allocs != 0 {
		t.Fatalf("trained typed Append allocates %.1f objects per batch, want 0", allocs)
	}
}
