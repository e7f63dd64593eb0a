package tsdb

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

var ctx = context.Background()

func openTemp(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

var meta = Meta{
	Name:            "pv",
	Start:           time.Date(2015, 1, 5, 0, 0, 0, 0, time.UTC),
	IntervalSeconds: 60,
	Recall:          0.66,
	Precision:       0.66,
	Trees:           60,
}

func TestRoundTrip(t *testing.T) {
	s := openTemp(t)
	if err := s.CreateSeries(meta); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendPoints(ctx, "pv", []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendPoints(ctx, "pv", []float64{4, 5}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendLabel(ctx, "pv", 1, 3, true); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendLabel(ctx, "pv", 2, 3, false); err != nil { // partial undo
		t.Fatal(err)
	}
	got, err := s.Load("pv")
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta != meta {
		t.Errorf("meta = %+v", got.Meta)
	}
	wantVals := []float64{1, 2, 3, 4, 5}
	wantLabels := []bool{false, true, false, false, false}
	for i := range wantVals {
		if got.Values[i] != wantVals[i] || got.Labels[i] != wantLabels[i] {
			t.Fatalf("replay = %v / %v", got.Values, got.Labels)
		}
	}
}

func TestInvalidNames(t *testing.T) {
	s := openTemp(t)
	for _, name := range []string{"", "a/b", `a\b`, ".."} {
		if err := s.AppendPoints(ctx, name, []float64{1}); err == nil {
			t.Errorf("name %q accepted", name)
		}
	}
}

func TestListAndRemove(t *testing.T) {
	s := openTemp(t)
	for _, n := range []string{"b", "a"} {
		m := meta
		m.Name = n
		if err := s.CreateSeries(m); err != nil {
			t.Fatal(err)
		}
	}
	names, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("List = %v", names)
	}
	if err := s.Remove("a"); err != nil {
		t.Fatal(err)
	}
	names, _ = s.List()
	if len(names) != 1 || names[0] != "b" {
		t.Errorf("after Remove, List = %v", names)
	}
	if err := s.Remove("a"); err != nil {
		t.Errorf("removing a missing series should be idempotent: %v", err)
	}
}

func TestAppendAfterReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.CreateSeries(meta)
	s.AppendPoints(ctx, "pv", []float64{1})
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.AppendPoints(ctx, "pv", []float64{2}); err != nil {
		t.Fatal(err)
	}
	got, err := s2.Load("pv")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Values) != 2 || got.Values[1] != 2 {
		t.Errorf("reopened replay = %v", got.Values)
	}
}

func TestAppendLabelValidation(t *testing.T) {
	s := openTemp(t)
	if err := s.AppendLabel(ctx, "pv", 3, 3, true); err == nil {
		t.Error("empty range accepted")
	}
	if err := s.AppendLabel(ctx, "pv", -1, 2, true); err == nil {
		t.Error("negative start accepted")
	}
}

func TestAppendPointsEmptyNoop(t *testing.T) {
	s := openTemp(t)
	if err := s.AppendPoints(ctx, "pv", nil); err != nil {
		t.Fatal(err)
	}
	if names, _ := s.List(); len(names) != 0 {
		t.Errorf("empty append created a log: %v", names)
	}
}

func TestCreateDuplicateRejected(t *testing.T) {
	s := openTemp(t)
	if err := s.CreateSeries(meta); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateSeries(meta); err == nil {
		t.Error("duplicate create accepted")
	}
}

func TestAppendContextCanceled(t *testing.T) {
	s := openTemp(t)
	if err := s.CreateSeries(meta); err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	// Cancellation abandons the wait, not the write: the call must return
	// promptly with either the context error or (if the commit won the
	// race) success — and the write may still be durable.
	err := s.AppendPoints(canceled, "pv", []float64{1})
	if err != nil && err != context.Canceled {
		t.Errorf("err = %v, want nil or context.Canceled", err)
	}
}

func TestClosedStoreRefusesWrites(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.AppendPoints(ctx, "pv", []float64{1}); err == nil {
		t.Error("append after Close accepted")
	}
}

// TestLegacyFixtureRefused: a data directory still holding logs of the
// retired one-file-per-series JSON-lines format (testdata/legacy) must not
// open as an empty store: Open fails naming the file and the format.
func TestLegacyFixtureRefused(t *testing.T) {
	src := filepath.Join("testdata", "legacy")
	dir := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(dir)
	if err == nil {
		s.Close()
		t.Fatal("Open accepted a directory of legacy JSON-lines logs")
	}
	if !strings.Contains(err.Error(), "lat.wal") || !strings.Contains(err.Error(), "unsupported") {
		t.Fatalf("Open error %q does not name the file and say the format is unsupported", err)
	}
}

// TestSubmitCompletesInOrder: Submit returns before the write is durable,
// every accepted write's completion runs exactly once, a series' writes
// complete in submission order, and a write Submit refuses never completes.
func TestSubmitCompletesInOrder(t *testing.T) {
	s := openTemp(t)
	if err := s.CreateSeries(meta); err != nil {
		t.Fatal(err)
	}
	const n = 200
	var (
		mu    sync.Mutex
		order []int
		wg    sync.WaitGroup
	)
	want := make([]float64, n)
	for i := range want {
		want[i] = float64(i)
		wg.Add(1)
		err := s.Submit(Write{Kind: WritePoints, Name: "pv", Values: want[i : i+1]}, func(err error) {
			if err != nil {
				t.Errorf("write %d: %v", i, err)
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			wg.Done()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("completion %d was write %d: out of submission order", i, got)
		}
	}
	got, err := s.Load("pv")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Values, want) {
		t.Fatalf("replayed %v, want %v", got.Values, want)
	}

	refused := func(error) { t.Error("completion ran for a refused write") }
	for _, w := range []Write{
		{Kind: WritePoints, Name: "pv"},
		{Kind: WriteLabel, Name: "pv", Start: 2, End: 2},
		{Kind: WritePoints, Name: "a/b", Values: []float64{1}},
		{Kind: writeTombstone, Name: "pv"},
	} {
		if err := s.Submit(w, refused); err == nil {
			t.Errorf("Submit accepted %+v", w)
		}
	}
}
