package engine

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"opprentice/internal/tsdb"
)

// This file is the engine's overload and stall machinery: the watchdog
// that supervises training and publish rounds, per-shard admission
// control, the durable-write accounting whose deadline misses flip a
// series into degraded mode, the threshold-only scorer that serves
// verdicts while degraded, and the hysteresis that recovers out of it. The
// retry and quarantine policy for stalled rounds lives in train.go;
// together they give the engine a defined answer to "what happens when it
// can't keep up" instead of an unbounded stall.

// SetTrainDeadline retunes the training/publish watchdog at runtime
// (0 disables).
func (e *Engine) SetTrainDeadline(d time.Duration) { e.trainDeadline.Store(int64(d)) }

// supervise runs fn on its own goroutine under the training watchdog, the
// one watchdog of training rounds and model publishes. The deadline is the
// smaller of the engine's training deadline and ctx's. A panic is recovered
// and counted as a worker panic instead of crashing the engine; a run that
// outlives the deadline (or ctx) is abandoned with an ErrStalled-wrapped
// error and counted as a training stall. The abandoned goroutine finishes
// in the background — its buffered channel means it never leaks — and then
// runs abandoned, when non-nil.
func (e *Engine) supervise(ctx context.Context, op, series string, fn func() error, abandoned func()) error {
	deadline := time.Duration(e.trainDeadline.Load())
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); deadline <= 0 || rem < deadline {
			deadline = rem
		}
	}
	done := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				e.counters.workerPanics.Add(1)
				done <- fmt.Errorf("%s panicked: %v", op, r)
			}
		}()
		done <- fn()
	}()
	var timer <-chan time.Time
	if deadline > 0 {
		t := time.NewTimer(deadline)
		defer t.Stop()
		timer = t.C
	}
	select {
	case err := <-done:
		return err
	case <-timer:
	case <-ctx.Done():
	}
	e.counters.trainStalls.Add(1)
	if abandoned != nil {
		go func() {
			<-done
			abandoned()
		}()
	}
	return stalledf("%s for %q exceeded its %v deadline", op, series, deadline)
}

// admitToken is a reservation against one shard's in-flight budget. It is a
// value (not a closure) so the per-append admission handshake stays off the
// heap; release must be called exactly once when the append leaves the
// engine. The zero token releases nothing.
type admitToken struct {
	sh *shard
	n  int64
}

func (t admitToken) release() {
	if t.sh != nil {
		t.sh.inflight.Add(-t.n)
	}
}

// admit reserves n points of the shard's in-flight budget, or sheds the
// batch with an ErrOverloaded-wrapped error.
func (e *Engine) admit(sh *shard, n int) (admitToken, error) {
	if e.ingestInflight <= 0 {
		return admitToken{}, nil
	}
	if cur := sh.inflight.Add(int64(n)); cur > e.ingestInflight {
		sh.inflight.Add(int64(-n))
		e.counters.ingestSheds.Add(1)
		return admitToken{}, overloadedf("ingest budget exhausted: %d points in flight, batch of %d over the %d cap",
			cur-int64(n), n, e.ingestInflight)
	}
	return admitToken{sh: sh, n: int64(n)}, nil
}

// enterDegraded flips a series into degraded serving (caller holds m.mu):
// verdicts become threshold-only against the last trained model's cThld,
// appended values accumulate in pending for the recovery replay, and
// durable writes are submitted without waiting.
func (e *Engine) enterDegraded(m *managed, reason string) {
	if m.degraded {
		return
	}
	m.degraded = true
	m.degradedSince = time.Now()
	m.degradedCThld = 0.5
	if m.monitor != nil {
		m.degradedCThld = m.monitor.CThld()
	}
	m.scorer.seed(m.series.Values)
	m.pending = m.pending[:0]
	m.lastViolation.Store(time.Now().UnixNano())
	e.counters.degradedEntered.Add(1)
	e.log.Warn("series degraded", "series", m.name, "reason", reason)
}

// maybeRecover leaves degraded mode (caller holds m.mu) once no durable
// write of the series has blown the WAL deadline for the full hysteresis
// window and none is pending. The values appended while degraded are
// replayed through the real monitor — their client-facing verdicts were
// already issued by the threshold scorer, so replay verdicts are discarded
// exactly like the retrain replay — which makes the monitor state
// bit-identical to a run that never degraded.
func (e *Engine) maybeRecover(m *managed) {
	if !m.degraded {
		return
	}
	if e.degradedRecovery <= 0 {
		return // sticky until restart
	}
	last := time.Unix(0, m.lastViolation.Load())
	if time.Since(last) < e.degradedRecovery {
		return
	}
	m.walMu.Lock()
	pending := m.walPending
	m.walMu.Unlock()
	if pending > 0 {
		return
	}
	if m.monitor != nil {
		for _, v := range m.pending {
			m.monitor.Step(v)
		}
	}
	m.pending = nil
	m.degraded = false
	e.counters.degradedRecovered.Add(1)
	e.log.Info("series recovered from degraded mode",
		"series", m.name, "degraded_for", time.Since(m.degradedSince))
}

// degradeScorer is the O(1) fallback classifier used while degraded: an
// exponentially-weighted mean/deviation estimate of the recent signal,
// scoring each point by its normalized distance. It is deterministic in
// the value sequence, so degraded verdicts are reproducible.
type degradeScorer struct {
	mean, dev float64 // EWMA mean and EWMA absolute deviation
	seeded    bool
}

// scorerSeedWindow is how much trailing history seeds the scorer when a
// series enters degraded mode.
const scorerSeedWindow = 64

// seed primes the estimates from trailing history.
func (s *degradeScorer) seed(values []float64) {
	s.mean, s.dev, s.seeded = 0, 0, false
	lo := len(values) - scorerSeedWindow
	if lo < 0 {
		lo = 0
	}
	for _, v := range values[lo:] {
		s.fold(v)
	}
}

// fold updates the estimates with one observation.
func (s *degradeScorer) fold(v float64) {
	const alpha = 1.0 / 16
	if !s.seeded {
		s.mean, s.dev, s.seeded = v, 0, true
		return
	}
	d := math.Abs(v - s.mean)
	s.mean += alpha * (v - s.mean)
	s.dev += alpha * (d - s.dev)
}

// score folds v in and returns an anomaly probability in [0, 1]: the
// normalized deviation, saturating at six deviations.
func (s *degradeScorer) score(v float64) float64 {
	if !s.seeded {
		s.fold(v)
		return 0
	}
	d := math.Abs(v - s.mean)
	scale := 6 * s.dev
	s.fold(v)
	if scale <= 0 || math.IsNaN(d) {
		if d > 0 {
			return 1
		}
		return 0
	}
	p := d / scale
	if p > 1 {
		p = 1
	}
	return p
}

// Readiness is the /v1/readyz view: the node is ready when no series is
// degraded or quarantined. Field tags double as the wire format.
type Readiness struct {
	Ready       bool     `json:"ready"`
	Degraded    []string `json:"degraded,omitempty"`
	Quarantined []string `json:"quarantined,omitempty"`
}

// Ready reports whether every series is serving full-fidelity verdicts,
// naming the ones that are not.
func (e *Engine) Ready() Readiness {
	r := Readiness{Ready: true}
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.RLock()
		for name, m := range sh.series {
			m.mu.Lock()
			degraded := m.degraded
			m.mu.Unlock()
			if degraded {
				r.Degraded = append(r.Degraded, name)
			}
			if m.quarantined.Load() {
				r.Quarantined = append(r.Quarantined, name)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Strings(r.Degraded)
	sort.Strings(r.Quarantined)
	r.Ready = len(r.Degraded) == 0 && len(r.Quarantined) == 0
	return r
}

// SyncWAL blocks until the series has no durable write pending, or ctx is
// done. Tests and the simulation harness use it to bring the log to a known
// point; it is not on any hot path.
func (e *Engine) SyncWAL(ctx context.Context, name string) error {
	m, err := e.lookup(name)
	if err != nil {
		return err
	}
	select {
	case <-m.walIdle():
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TypedLabelStore is the synchronous typed-label write of *tsdb.Store. The
// engine itself submits typed labels through Store.Submit
// (tsdb.WriteTypedLabel); wrappers of the store still name this interface.
type TypedLabelStore interface {
	AppendTypedLabel(ctx context.Context, name string, start, end int, anomalous bool, class uint8) error
}

var _ TypedLabelStore = (*tsdb.Store)(nil)

// walBufferPoints bounds the points one series may have pending in the
// store. A points write beyond it — in practice only while degraded, when
// writes are submitted without waiting — is dropped from the log (never
// from memory) and counted in Counters().WALLostPoints.
const walBufferPoints = 1 << 16

// closedCh is what walIdle returns when nothing is pending.
var closedCh = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// walSubmit hands one write for m to the store (caller holds m.mu, so the
// store queues the series' writes in append order) and counts it pending
// until its completion runs; a write the store refuses at once completes
// at once. done, when non-nil, receives the result.
func (e *Engine) walSubmit(m *managed, w tsdb.Write, done chan error) {
	n, kind := len(w.Values), w.Kind
	m.walMu.Lock()
	m.walPending++
	m.walBuffered += n
	m.walMu.Unlock()
	submitted := time.Now()
	complete := func(err error) {
		switch {
		case kind == tsdb.WriteMeta:
			// Create reports its own failure.
		case err != nil:
			e.counters.walAppendErrors.Add(1)
			e.log.Error("wal append failed", "series", m.name, "err", err)
		case e.walDeadline > 0 && time.Since(submitted) > e.walDeadline:
			// A write that completed but blew its budget counts as a
			// violation for the recovery hysteresis, not as an error.
			m.lastViolation.Store(time.Now().UnixNano())
		}
		m.walSettle(n)
		if done != nil {
			done <- err
		}
	}
	if err := e.store.Submit(w, complete); err != nil {
		complete(err)
	}
}

// walSettle retires one pending write of n points, waking walIdle waiters
// when it was the last.
func (m *managed) walSettle(n int) {
	m.walMu.Lock()
	m.walPending--
	m.walBuffered -= n
	if m.walPending == 0 && m.walDrained != nil {
		close(m.walDrained)
		m.walDrained = nil
	}
	m.walMu.Unlock()
}

// walIdle returns a channel closed once m has no durable write pending.
func (m *managed) walIdle() <-chan struct{} {
	m.walMu.Lock()
	defer m.walMu.Unlock()
	if m.walPending == 0 {
		return closedCh
	}
	if m.walDrained == nil {
		m.walDrained = make(chan struct{})
	}
	return m.walDrained
}

// walWrite makes one points or label write durable for m (caller holds
// m.mu) and reports whether it is on disk when the call returns. A healthy
// series waits up to the WAL deadline and flips degraded on a miss; a
// degraded one submits without waiting. A points write that would take the
// series past walBufferPoints pending points is dropped from the log with
// loss accounting.
func (e *Engine) walWrite(ctx context.Context, m *managed, w tsdb.Write) bool {
	if n := len(w.Values); n > 0 {
		m.walMu.Lock()
		full := m.walBuffered+n > walBufferPoints
		m.walMu.Unlock()
		if full {
			e.counters.walLostPoints.Add(int64(n))
			e.log.Error("wal batch dropped: buffer full", "series", m.name, "points", n)
			e.enterDegraded(m, "wal buffer full")
			return false
		}
	}
	if m.degraded {
		e.walSubmit(m, w, nil)
		e.counters.walBufferedPoints.Add(int64(len(w.Values)))
		return false
	}
	done := make(chan error, 1)
	e.walSubmit(m, w, done)
	if ok, err := e.walAwait(ctx, done); ok {
		return err == nil
	}
	if ctx.Err() == nil {
		// A real deadline miss, not the client hanging up: the series flips
		// degraded and the write completes in the background.
		m.lastViolation.Store(time.Now().UnixNano())
		e.enterDegraded(m, "wal write blew its deadline")
	}
	return false
}

// walAwait waits for a submitted write's result up to the WAL deadline and
// ctx. ok is false on a miss; the write stays queued and its completion
// still runs.
func (e *Engine) walAwait(ctx context.Context, done chan error) (ok bool, err error) {
	var timer <-chan time.Time
	if e.walDeadline > 0 {
		t := time.NewTimer(e.walDeadline)
		defer t.Stop()
		timer = t.C
	}
	select {
	case err := <-done:
		return true, err
	case <-timer:
		return false, nil
	case <-ctx.Done():
		return false, ctx.Err()
	}
}
