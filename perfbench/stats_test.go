package main

import (
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestPercentileNearestRankNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // rank 990, 10 beyond
		{999, 0.99, 0, false},   // rank 990, 9 beyond
		{20, 0.50, 10, true},    // rank 10, 10 beyond
		{19, 0.50, 0, false},    // rank 10, 9 beyond
		{3000, 0.999, 0, false}, // rank 2997, 3 beyond
		{1011, 0.99, 1001, true},
		{0, 0.5, 0, false},
	}
	for _, c := range cases {
		got, err := percentile(seq(c.n), c.q)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g, ok=%v", c.n, c.q, got, err, c.want, c.ok)
		}
	}
}

// steady is a window of n requests that all took ms and ran on time over
// sec seconds.
func steady(n int, ms, sec float64) window {
	w := window{Scheduled: n, Sent: n, WindowSec: sec}
	for i := 0; i < n; i++ {
		w.Latencies = append(w.Latencies, ms)
		w.Late = append(w.Late, 0.1)
	}
	return w
}

func TestBacklogged(t *testing.T) {
	if steady(1000, 2, 1).backlogged() {
		t.Error("an on-time window counts as backlogged")
	}
	unsent := steady(1000, 2, 1)
	unsent.Sent = 990
	if !unsent.backlogged() {
		t.Error("a window that left requests unsent is not backlogged")
	}
	growing := steady(1000, 2, 1)
	for i := range growing.Late {
		growing.Late[i] = float64(i) / 100 // 0 → 10 ms late across the window
	}
	if !growing.backlogged() {
		t.Error("a window whose lateness grows is not backlogged")
	}
}

func TestTierSLO(t *testing.T) {
	if !(tier{Name: "mid", window: steady(1100, 20, 1)}).meetsSLO() {
		t.Error("a p99 at the SLO failed it")
	}
	if (tier{Name: "mid", window: steady(1100, 20.5, 1)}).meetsSLO() {
		t.Error("a p99 over the SLO met it")
	}
	short := tier{Name: "low", window: steady(500, 2, 1)}
	if _, err := short.percentile(0.99); err == nil || short.meetsSLO() {
		t.Error("a window too short for a p99 was accepted")
	}
}

func TestSustainedPicksHighestTierMeetingSLO(t *testing.T) {
	tiers := func(low, mid, high window) []tier {
		return []tier{
			{Name: "low", OfferedPPS: 400, window: low},
			{Name: "mid", OfferedPPS: 1000, window: mid},
			{Name: "high", OfferedPPS: 10000, window: high},
		}
	}
	ok := steady(1100, 2, 1)
	slow := steady(1100, 25, 1)
	backlog := steady(1100, 2, 1)
	backlog.Sent = 1000
	failed := steady(1100, 2, 1)
	failed.Failed = 1
	failed.Latencies[len(failed.Latencies)-1] = failedLatencyMs

	if got, want := sustainedPPS(tiers(ok, ok, backlog)), 1100.0; got != want {
		t.Errorf("high backlogged: sustained %g, want mid's %g", got, want)
	}
	if got, want := sustainedPPS(tiers(ok, slow, slow)), 1100.0; got != want {
		t.Errorf("mid over SLO: sustained %g, want low's %g", got, want)
	}
	if got, want := sustainedPPS(tiers(ok, failed, backlog)), 1100.0; got != want {
		t.Errorf("mid with a failure: sustained %g, want low's %g", got, want)
	}
	if got := sustainedPPS(tiers(slow, slow, slow)); got != 0 {
		t.Errorf("no tier meets the SLO: sustained %g, want 0", got)
	}
}

func TestAccounting(t *testing.T) {
	var a accounting
	a.op(nil)
	a.op(errors.New("503"))
	a.check(true)
	a.check(false)
	if a.attempted.Load() != 4 || a.failed.Load() != 2 || a.checks.Load() != 1 {
		t.Fatalf("attempted %d failed %d checks %d; want 4 2 1", a.attempted.Load(), a.failed.Load(), a.checks.Load())
	}
	if got := a.successFrac(); got != 0.5 {
		t.Errorf("success fraction %g, want 0.5", got)
	}
}

func TestMetricNames(t *testing.T) {
	for _, bad := range []string{"", ".a", "_a", "a b", "a/b", "é", "a,b", strings.Repeat("a", 65)} {
		if validMetricName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	seen := map[string]bool{}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		names = append(names, m.name)
	}
	for _, n := range names {
		if !validMetricName(n) || seen[n] {
			t.Errorf("name %q invalid or used twice", n)
		}
		seen[n] = true
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program in step:
// the same workloads, and the metrics the program prints in each mode.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q unknown to the program", w.Name)
		}
	}
	match := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	match("end_to_end", spec.EndToEnd, endToEnd)
	match("per_layer", spec.PerLayer, perLayer)
}
