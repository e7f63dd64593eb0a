package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"testing"
	"time"

	"opprentice/internal/kpigen"
	"opprentice/internal/tsdb"
)

// TestAdmissionShedsWholeBatch pins the admission-control contract: a batch
// over the shard's in-flight budget is shed atomically with ErrOverloaded —
// no partial append, no verdicts, no series mutation — and the very next
// batch within budget goes through, because the budget counts in-flight
// points, not a rate.
func TestAdmissionShedsWholeBatch(t *testing.T) {
	e := New(Config{
		Log:            slog.New(slog.NewTextHandler(io.Discard, nil)),
		IngestInflight: 8,
	})
	t.Cleanup(e.Close)
	if err := e.Create("pv", SeriesConfig{IntervalSeconds: 60, Start: testStart}); err != nil {
		t.Fatal(err)
	}
	if res, err := e.Append(context.Background(), "pv", make([]Point, 4), nil); err != nil || res.Appended != 4 {
		t.Fatalf("in-budget batch: res=%+v err=%v", res, err)
	}

	res, err := e.Append(context.Background(), "pv", make([]Point, 9), nil)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("oversized batch: got %v, want ErrOverloaded", err)
	}
	if res.Appended != 0 || len(res.Verdicts) != 0 {
		t.Fatalf("shed batch leaked state: res=%+v", res)
	}
	st, err := e.Status(context.Background(), "pv")
	if err != nil {
		t.Fatal(err)
	}
	if st.Points != 4 {
		t.Fatalf("shed batch mutated the series: %d points, want 4", st.Points)
	}
	if c := e.Counters(); c.IngestSheds != 1 {
		t.Fatalf("IngestSheds = %d, want 1", c.IngestSheds)
	}

	// Admission is per-call in-flight budget, not a rate limit: a full-budget
	// batch right after the shed is admitted.
	if res, err := e.Append(context.Background(), "pv", make([]Point, 8), nil); err != nil || res.Appended != 8 {
		t.Fatalf("post-shed batch: res=%+v err=%v", res, err)
	}
	if st, _ := e.Status(context.Background(), "pv"); st.Points != 12 {
		t.Fatalf("series length %d, want 12", st.Points)
	}
}

// stallStore is an in-memory engine.Store whose points and label writes
// wedge while the gate is armed — a deterministic stand-in for a stalling
// disk. Wedged writes complete, in submission order, at release; a write
// submitted behind them queues behind them, so each series' writes still
// complete in order.
type stallStore struct {
	mu    sync.Mutex
	armed bool
	held  []func(error)
}

func (s *stallStore) arm() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.armed = true
}

func (s *stallStore) release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.armed = false
	for _, done := range s.held {
		done(nil)
	}
	s.held = nil
}

func (s *stallStore) Submit(w tsdb.Write, done func(error)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if w.Kind != tsdb.WriteMeta && (s.armed || len(s.held) > 0) {
		s.held = append(s.held, done)
		return nil
	}
	done(nil)
	return nil
}

func (s *stallStore) List() ([]string, error)           { return nil, nil }
func (s *stallStore) Load(string) (*tsdb.Loaded, error) { return nil, fmt.Errorf("not stored") }
func (s *stallStore) Quarantine(string) (string, error) { return "", fmt.Errorf("not stored") }

// TestDegradedRecoveryConverges is the degraded-mode convergence test: engine
// A (behind a stalling store) and twin B (memory only) receive identical
// traffic and training. A's WAL deadline miss flips it to threshold-only
// serving; after the stall clears and the hysteresis window passes, A must
// recover and serve verdicts bit-identical to B, which never degraded — the
// recovery replay leaves the monitor in exactly the state of an uninterrupted
// run.
func TestDegradedRecoveryConverges(t *testing.T) {
	p := kpigen.PV(kpigen.Small)
	p.Interval = time.Hour
	p.Weeks = 10
	d := kpigen.Generate(p, 91)
	ppw, err := d.Series.PointsPerWeek()
	if err != nil {
		t.Fatal(err)
	}

	const (
		walDeadline = 50 * time.Millisecond
		recovery    = 100 * time.Millisecond
	)
	store := &stallStore{}
	a := New(Config{
		Log:              slog.New(slog.NewTextHandler(io.Discard, nil)),
		Store:            store,
		WALDeadline:      walDeadline,
		DegradedRecovery: recovery,
	})
	t.Cleanup(a.Close)
	b := newTestEngine(t)

	// Identical boot: history, labels, one training round each.
	boot := 9 * ppw
	for _, e := range []*Engine{a, b} {
		if err := e.Create("pv", SeriesConfig{IntervalSeconds: 3600, Start: testStart, Trees: 10}); err != nil {
			t.Fatal(err)
		}
		pts := make([]Point, boot)
		for i := range pts {
			pts[i] = Point{Value: d.Series.Values[i]}
		}
		if _, err := e.Append(context.Background(), "pv", pts, nil); err != nil {
			t.Fatal(err)
		}
		var windows []Window
		for _, w := range d.Labels.Windows() {
			if w.End <= boot {
				windows = append(windows, Window{Start: w.Start, End: w.End, Anomalous: true})
			}
		}
		if _, err := e.Label(context.Background(), "pv", windows); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Train(context.Background(), "pv"); err != nil {
			t.Fatal(err)
		}
	}

	rest := d.Series.Values[boot:]
	const batch = 40 // 4 batches fit the one spare week of generated data
	feed := func(e *Engine, off int) AppendResult {
		t.Helper()
		pts := make([]Point, batch)
		for i := range pts {
			pts[i] = Point{Value: rest[off+i]}
		}
		res, err := e.Append(context.Background(), "pv", pts, nil)
		if err != nil {
			t.Fatalf("append at offset %d: %v", off, err)
		}
		return res
	}
	sameVerdicts := func(what string, got, want []Verdict) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d verdicts vs twin's %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: verdict %d diverged from the never-degraded twin: %+v vs %+v", what, i, got[i], want[i])
			}
		}
	}

	// Batch 1 rides the stall in: verdicts are computed by the full model
	// before the WAL wait, so they still match the twin, but the deadline
	// miss flips A degraded.
	store.arm()
	resA := feed(a, 0)
	resB := feed(b, 0)
	if resA.Persisted || !resA.Degraded {
		t.Fatalf("stalled batch: Persisted=%v Degraded=%v, want false/true", resA.Persisted, resA.Degraded)
	}
	sameVerdicts("degrading batch", resA.Verdicts, resB.Verdicts)

	// Batch 2 is served threshold-only while degraded; the twin keeps full
	// fidelity, so the two streams intentionally diverge here.
	resA = feed(a, batch)
	resB = feed(b, batch)
	if !resA.Degraded {
		t.Fatal("second batch under a stalled store was not served degraded")
	}
	for i, v := range resA.Verdicts {
		if !v.Degraded {
			t.Fatalf("degraded-mode verdict %d not flagged Degraded: %+v", i, v)
		}
		if v.Probability < 0 || v.Probability > 1 {
			t.Fatalf("degraded-mode verdict %d probability %v outside [0,1]", i, v.Probability)
		}
	}
	if r := a.Ready(); r.Ready || len(r.Degraded) != 1 || r.Degraded[0] != "pv" {
		t.Fatalf("degraded series missing from readiness: %+v", r)
	}

	// Clear the stall, drain the pending writes, and let the hysteresis window pass.
	store.release()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := a.SyncWAL(ctx, "pv"); err != nil {
		t.Fatalf("SyncWAL: %v", err)
	}
	cancel()
	time.Sleep(recovery + 100*time.Millisecond)

	// Batch 3 triggers recovery: the buffered values replay through the real
	// monitor first, so from here on A is bit-identical to the twin again.
	resA = feed(a, 2*batch)
	resB = feed(b, 2*batch)
	if resA.Degraded || !resA.Persisted {
		t.Fatalf("post-recovery batch: Persisted=%v Degraded=%v, want true/false", resA.Persisted, resA.Degraded)
	}
	sameVerdicts("post-recovery batch", resA.Verdicts, resB.Verdicts)
	resA = feed(a, 3*batch)
	resB = feed(b, 3*batch)
	sameVerdicts("steady-state batch", resA.Verdicts, resB.Verdicts)

	c := a.Counters()
	if c.DegradedEntered != 1 || c.DegradedRecovered != 1 {
		t.Fatalf("degraded transitions: entered=%d recovered=%d, want 1/1", c.DegradedEntered, c.DegradedRecovered)
	}
	if c.WALLostPoints != 0 {
		t.Fatalf("lost %d WAL points across a bounded stall", c.WALLostPoints)
	}
	if r := a.Ready(); !r.Ready {
		t.Fatalf("recovered engine still not ready: %+v", r)
	}
}
