package engine

// Tests of the engine's durable-write contract on the store's one queue:
// log order against a racing Create, the degraded-mode loss path, and the
// fixed cost of an empty durable series.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sync"
	"testing"
	"time"

	"opprentice/internal/detectors"
	"opprentice/internal/kpigen"
	"opprentice/internal/tsdb"
)

// orderStore records the first write each series' log receives and
// completes every write at once.
type orderStore struct {
	mu    sync.Mutex
	first map[string]tsdb.WriteKind
}

func (s *orderStore) Submit(w tsdb.Write, done func(error)) error {
	s.mu.Lock()
	if _, ok := s.first[w.Name]; !ok {
		s.first[w.Name] = w.Kind
	}
	s.mu.Unlock()
	done(nil)
	return nil
}

func (s *orderStore) List() ([]string, error)           { return nil, nil }
func (s *orderStore) Load(string) (*tsdb.Loaded, error) { return nil, fmt.Errorf("not stored") }
func (s *orderStore) Quarantine(string) (string, error) { return "", fmt.Errorf("not stored") }

// TestCreateMetaPrecedesRacingAppend races every Create against an Append
// of the same name that spins until the series is visible: the series'
// meta record must always reach the log before any of its points, or the
// log could never be loaded again ("points before meta").
func TestCreateMetaPrecedesRacingAppend(t *testing.T) {
	store := &orderStore{first: map[string]tsdb.WriteKind{}}
	e := newTestEngine(t)
	e.SetStore(store)
	ctx := context.Background()
	const n = 2000
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("s%d", i)
		appended := make(chan error, 1)
		go func() {
			for {
				_, err := e.Append(ctx, name, []Point{{Value: 1}}, nil)
				if !errors.Is(err, ErrNotFound) {
					appended <- err
					return
				}
				runtime.Gosched()
			}
		}()
		if err := e.Create(name, SeriesConfig{IntervalSeconds: 60, Start: testStart}); err != nil {
			t.Fatal(err)
		}
		if err := <-appended; err != nil {
			t.Fatal(err)
		}
	}
	bad := 0
	for name, kind := range store.first {
		if kind != tsdb.WriteMeta {
			bad++
			t.Logf("series %s: first logged write is kind %d, not the meta", name, kind)
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d series logged a write before their meta record", bad, n)
	}
}

// TestDegradedBufferFullDropsFromLogOnly pins the WAL loss path: once a
// degraded series has walBufferPoints points pending behind a stalled
// store, its next batch is dropped from the log only — Append still
// returns the batch's verdicts, Persisted=false, WALLostPoints grows by
// exactly the batch and WALBufferedPoints not at all — and the series
// recovers once the stall clears and the hysteresis window passes.
func TestDegradedBufferFullDropsFromLogOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	p := kpigen.PV(kpigen.Small)
	p.Interval = time.Hour
	p.Weeks = 10
	d := kpigen.Generate(p, 91)
	ppw, err := d.Series.PointsPerWeek()
	if err != nil {
		t.Fatal(err)
	}
	const recovery = 100 * time.Millisecond
	store := &stallStore{}
	e := New(Config{
		Log:              slog.New(slog.NewTextHandler(io.Discard, nil)),
		Store:            store,
		WALDeadline:      50 * time.Millisecond,
		DegradedRecovery: recovery,
		// A few cheap detectors keep the recovery replay of the
		// walBufferPoints parked values short, even under -race.
		Registry: func(interval time.Duration) ([]detectors.Detector, error) {
			ds, err := detectors.Registry(interval)
			if err != nil {
				return nil, err
			}
			return ds[:9], nil
		},
	})
	t.Cleanup(e.Close)
	ctx := context.Background()
	if err := e.Create("pv", SeriesConfig{IntervalSeconds: 3600, Start: testStart, Trees: 10}); err != nil {
		t.Fatal(err)
	}
	boot := 9 * ppw
	pts := make([]Point, boot)
	for i := range pts {
		pts[i] = Point{Value: d.Series.Values[i]}
	}
	if _, err := e.Append(ctx, "pv", pts, nil); err != nil {
		t.Fatal(err)
	}
	var windows []Window
	for _, w := range d.Labels.Windows() {
		if w.End <= boot {
			windows = append(windows, Window{Start: w.Start, End: w.End, Anomalous: true})
		}
	}
	if _, err := e.Label(ctx, "pv", windows); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Train(ctx, "pv"); err != nil {
		t.Fatal(err)
	}

	rest := d.Series.Values[boot:]
	feed := func(n int) AppendResult {
		t.Helper()
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{Value: rest[i%len(rest)]}
		}
		res, err := e.Append(ctx, "pv", pts, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// The first batch blows the deadline and degrades the series; the
	// filler takes its pending points exactly to the bound.
	const batch = 40
	store.arm()
	if res := feed(batch); !res.Degraded || res.Persisted {
		t.Fatalf("stalled batch: Persisted=%v Degraded=%v, want false/true", res.Persisted, res.Degraded)
	}
	if res := feed(walBufferPoints - batch); !res.Degraded {
		t.Fatal("filler batch not served degraded")
	}
	before := e.Counters()
	if before.WALLostPoints != 0 || before.WALBufferedPoints != walBufferPoints-batch {
		t.Fatalf("at the bound: lost=%d buffered=%d, want 0/%d", before.WALLostPoints, before.WALBufferedPoints, walBufferPoints-batch)
	}

	res := feed(batch)
	if res.Persisted || !res.Degraded || res.Appended != batch || len(res.Verdicts) != batch {
		t.Fatalf("batch past the bound: %+v", res)
	}
	for i, v := range res.Verdicts {
		if !v.Degraded || v.Index != res.Total-batch+i {
			t.Fatalf("verdict %d of the dropped batch: %+v", i, v)
		}
	}
	after := e.Counters()
	if got := after.WALLostPoints - before.WALLostPoints; got != batch {
		t.Fatalf("WALLostPoints grew by %d, want %d", got, batch)
	}
	if after.WALBufferedPoints != before.WALBufferedPoints {
		t.Fatalf("WALBufferedPoints moved %d -> %d for a dropped batch", before.WALBufferedPoints, after.WALBufferedPoints)
	}
	if st, _ := e.Status(ctx, "pv"); st.Points != res.Total {
		t.Fatalf("dropped batch left memory: %d points, want %d", st.Points, res.Total)
	}

	store.release()
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := e.SyncWAL(sctx, "pv"); err != nil {
		t.Fatalf("SyncWAL: %v", err)
	}
	time.Sleep(recovery + 100*time.Millisecond)
	if res := feed(batch); res.Degraded || !res.Persisted {
		t.Fatalf("post-recovery batch: Persisted=%v Degraded=%v, want true/false", res.Persisted, res.Degraded)
	}
	if c := e.Counters(); c.DegradedEntered != 1 || c.DegradedRecovered != 1 {
		t.Fatalf("degraded transitions: entered=%d recovered=%d, want 1/1", c.DegradedEntered, c.DegradedRecovered)
	}
}

// TestDurableSeriesCeiling pins the fixed cost of an empty durable series
// on a real store: no goroutine per series, and live heap well under the
// per-series budget.
func TestDurableSeriesCeiling(t *testing.T) {
	const (
		n          = 256
		heapBudget = 64 << 10 // bytes per series
	)
	store, err := tsdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	e := New(Config{Log: slog.New(slog.NewTextHandler(io.Discard, nil)), Store: store})
	t.Cleanup(e.Close)

	measure := func() (goroutines int, heap uint64) {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return runtime.NumGoroutine(), ms.HeapAlloc
	}
	g0, h0 := measure()
	for i := 0; i < n; i++ {
		if err := e.Create(fmt.Sprintf("kpi-%03d", i), SeriesConfig{IntervalSeconds: 60, Start: testStart}); err != nil {
			t.Fatal(err)
		}
	}
	g1, h1 := measure()
	runtime.KeepAlive(e)

	if dg := g1 - g0; dg >= n/32 {
		t.Errorf("%d durable series added %d goroutines; want a count independent of the series", n, dg)
	}
	per := float64(int64(h1)-int64(h0)) / n
	t.Logf("%d empty durable series: %.1f KiB live heap and %.3f goroutines each", n, per/1024, float64(g1-g0)/n)
	if per > heapBudget {
		t.Errorf("%.1f KiB of live heap per empty durable series, want under %d KiB", per/1024, heapBudget>>10)
	}
}
