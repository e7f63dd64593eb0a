package main

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// minTail is how many samples must lie beyond a reported percentile: a
// percentile resting on fewer is noise, so it is not reported.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of an
// ascending-sorted sample: the value at 1-based rank ⌈q·n⌉. It fails when
// fewer than minTail samples lie beyond that rank.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g of an empty sample", 100*q)
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*q, n, beyond, minTail)
	}
	return sorted[rank-1], nil
}

// median returns the middle of an unsorted sample (the mean of the two
// middle values for an even count); it copies before sorting.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// sloLatencyMs is the serving SLO: p99 point → verdict latency.
const sloLatencyMs = 20

// failedLatencyMs stands in for the latency of a failed or shed request: a
// failure misses every latency limit, and JSON has no infinity.
const failedLatencyMs = 1e6

// window is one open-loop run at a fixed rate, as measured.
type window struct {
	Scheduled int // requests due in the window
	Sent      int // requests issued (the rest were still queued when it gave up)
	Failed    int // sheds, transport errors and 5xx
	// Latencies are milliseconds from each request's due time to its
	// response, ascending; failed requests carry failedLatencyMs.
	Latencies []float64
	// Late are milliseconds from each request's due time to its send, in
	// schedule order.
	Late      []float64
	WindowSec float64 // from the first due time to the last response
	CPUSec    float64 // process CPU time used meanwhile
}

// achievedPPS is the completed-request rate over the window.
func (w window) achievedPPS() float64 {
	if w.WindowSec <= 0 {
		return 0
	}
	return float64(w.Sent-w.Failed) / w.WindowSec
}

// backlogged reports whether the generator fell behind the schedule for
// good: requests were still unsent when it gave up, or the median lateness
// of the window's last quarter exceeds its first quarter's by more than a
// millisecond (lateness that grows instead of recovering).
func (w window) backlogged() bool {
	if w.Sent < w.Scheduled {
		return true
	}
	q := len(w.Late) / 4
	if q == 0 {
		return false
	}
	return median(w.Late[len(w.Late)-q:])-median(w.Late[:q]) > 1
}

// tier is one offered rate and the window that measured it.
type tier struct {
	Name       string
	OfferedPPS float64
	window
}

// percentile is the tier's nearest-rank q-quantile latency.
func (t tier) percentile(q float64) (float64, error) {
	v, err := percentile(t.Latencies, q)
	if err != nil {
		return 0, fmt.Errorf("tier %s: %w", t.Name, err)
	}
	return v, nil
}

// meetsSLO reports whether the tier kept its p99 within the SLO without
// failures or a growing backlog. A tier too short to support a p99 fails.
func (t tier) meetsSLO() bool {
	p99, err := t.percentile(0.99)
	return err == nil && p99 <= sloLatencyMs && t.Failed == 0 && !t.backlogged()
}

// cpuPerPoint is the process CPU time per completed request of the tiers,
// in microseconds.
func cpuPerPoint(tiers []tier) float64 {
	cpu, n := 0.0, 0
	for _, t := range tiers {
		cpu += t.CPUSec
		n += t.Sent - t.Failed
	}
	if n == 0 {
		return 0
	}
	return cpu / float64(n) * 1e6
}

// sustainedPPS is the achieved rate of the highest offered tier that met
// the SLO, or 0 when none did.
func sustainedPPS(tiers []tier) float64 {
	best, bestOffered := 0.0, -1.0
	for _, t := range tiers {
		if t.meetsSLO() && t.OfferedPPS > bestOffered {
			best, bestOffered = t.achievedPPS(), t.OfferedPPS
		}
	}
	return best
}

// accounting counts operations attempted against the program and those
// that failed: shed or errored requests and failed correctness checks.
// Safe for concurrent use.
type accounting struct {
	attempted atomic.Int64
	failed    atomic.Int64
	checks    atomic.Int64 // failed correctness checks (also in failed)
}

// op records one attempted operation and whether it failed.
func (a *accounting) op(err error) {
	a.attempted.Add(1)
	if err != nil {
		a.failed.Add(1)
	}
}

// check records one correctness check; a failed one fails the run.
func (a *accounting) check(ok bool) {
	a.attempted.Add(1)
	if !ok {
		a.failed.Add(1)
		a.checks.Add(1)
	}
}

// successFrac is the share of attempted operations that succeeded.
func (a *accounting) successFrac() float64 {
	n := a.attempted.Load()
	if n == 0 {
		return 0
	}
	return 1 - float64(a.failed.Load())/float64(n)
}

// validMetricName reports whether name is usable as a metric or workload
// name: 1 to 64 of [A-Za-z0-9_.-], starting with a letter or digit.
func validMetricName(name string) bool {
	if len(name) == 0 || len(name) > 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if !alnum && (i == 0 || c != '_' && c != '.' && c != '-') {
			return false
		}
	}
	return true
}
