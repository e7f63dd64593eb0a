package engine

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"opprentice/internal/tsdb"
)

// This file is the engine's overload and stall machinery: the watchdog
// that supervises training and publish rounds, per-shard admission
// control, the per-series background WAL writer whose deadline misses flip
// a series into degraded mode, the threshold-only scorer that serves
// verdicts while degraded, and the hysteresis that recovers out of it. The
// retry and quarantine policy for stalled rounds lives in train.go;
// together they give the engine a defined answer to "what happens when it
// can't keep up" instead of an unbounded stall.

// SetWALDeadline retunes the durable-write budget at runtime (0 disables).
func (e *Engine) SetWALDeadline(d time.Duration) { e.walDeadline.Store(int64(d)) }

// SetTrainDeadline retunes the training/publish watchdog at runtime
// (0 disables).
func (e *Engine) SetTrainDeadline(d time.Duration) { e.trainDeadline.Store(int64(d)) }

// SetDegradedRecovery retunes the degraded-mode recovery hysteresis at
// runtime (0 makes degraded mode sticky).
func (e *Engine) SetDegradedRecovery(d time.Duration) { e.degradedRecovery.Store(int64(d)) }

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
// appended values accumulate in pending for the recovery replay, and WAL
// ops are buffered in the background writer.
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

// maybeRecover leaves degraded mode (caller holds m.mu) once the WAL
// writer has been quiet for the full hysteresis window and its queue has
// drained. The values appended while degraded are replayed through the
// real monitor — their client-facing verdicts were already issued by the
// threshold scorer, so replay verdicts are discarded exactly like the
// retrain replay — which makes the monitor state bit-identical to a run
// that never degraded.
func (e *Engine) maybeRecover(m *managed) {
	if !m.degraded {
		return
	}
	rec := time.Duration(e.degradedRecovery.Load())
	if rec <= 0 {
		return // sticky until restart
	}
	last := time.Unix(0, m.lastViolation.Load())
	if time.Since(last) < rec {
		return
	}
	if m.walw != nil && !m.walw.idle() {
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

// SyncWAL blocks until every WAL op enqueued for the series before the
// call has been executed (a write barrier), or ctx is done. Tests and the
// simulation harness use it to force the background writer to a known
// point; it is not on any hot path.
func (e *Engine) SyncWAL(ctx context.Context, name string) error {
	m, err := e.lookup(name)
	if err != nil {
		return err
	}
	if m.walw == nil {
		return nil
	}
	done := make(chan error, 1)
	if !m.walw.enqueue(walOp{kind: opBarrier, done: done}) {
		return stalledf("wal writer for %q is saturated or closed", name)
	}
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// opKind enumerates WAL writer operations.
type opKind int

const (
	opMeta opKind = iota
	opPoints
	opLabel
	opBarrier
)

// walOp is one queued durable write (or a barrier). done, when non-nil,
// receives the store's result exactly once (buffered so an abandoned
// waiter never blocks the writer).
type walOp struct {
	kind      opKind
	meta      tsdb.Meta
	values    []float64
	start     int
	end       int
	anomalous bool
	typed     bool  // the label carries an anomaly class
	class     uint8 // core.AnomalyClass wire code
	done      chan error
}

// TypedLabelStore is the optional store capability for anomaly-class label
// records. *tsdb.Store implements it; a store without it (test fakes,
// older stores) silently degrades typed labels to plain ones in the log —
// the in-memory typed channel is unaffected.
type TypedLabelStore interface {
	AppendTypedLabel(ctx context.Context, name string, start, end int, anomalous bool, class uint8) error
}

var _ TypedLabelStore = (*tsdb.Store)(nil)

// walWriter serializes one series' durable writes on a dedicated
// goroutine. Ops are enqueued under the series mutex, so queue order is
// exactly append order; the healthy ingest path then waits for its op up
// to the WAL deadline, and a miss flips the series degraded while the
// writer keeps draining in the background with bounded buffering.
type walWriter struct {
	series string
	eng    *Engine
	m      *managed

	mu         sync.Mutex
	closed     bool
	pendingOps int // enqueued but not yet executed
	buffered   int // points those ops hold (degraded-mode memory bound)

	ops     chan walOp
	drained chan struct{}
}

// attachWAL wires a background WAL writer to the series. Must be called
// before the series sees traffic.
func (e *Engine) attachWAL(m *managed) {
	if e.store == nil {
		return
	}
	w := &walWriter{
		series:  m.name,
		eng:     e,
		m:       m,
		ops:     make(chan walOp, 4096),
		drained: make(chan struct{}),
	}
	m.walw = w
	go w.run()
}

// enqueue adds one op to the queue. It reports false — without blocking —
// when the writer is closed, the op channel is full, or a points op would
// exceed the buffered-points bound; the caller decides whether that is a
// loss to account.
func (w *walWriter) enqueue(op walOp) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return false
	}
	if op.kind == opPoints && w.eng.walBufferPoints > 0 &&
		w.buffered+len(op.values) > w.eng.walBufferPoints {
		return false
	}
	select {
	case w.ops <- op:
		w.pendingOps++
		w.buffered += len(op.values)
		return true
	default:
		return false
	}
}

// idle reports whether every enqueued op has been executed.
func (w *walWriter) idle() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.pendingOps == 0
}

// run executes ops in order until shutdown closes the queue.
func (w *walWriter) run() {
	defer close(w.drained)
	for op := range w.ops {
		w.exec(op)
	}
}

// exec performs one op against the store, stamps deadline violations and
// errors on the series, and wakes any waiter.
func (w *walWriter) exec(op walOp) {
	deadline := time.Duration(w.eng.walDeadline.Load())
	started := time.Now()
	var err error
	switch op.kind {
	case opMeta:
		err = w.eng.store.CreateSeries(op.meta)
	case opPoints:
		// The queue decouples callers from the store, so there is no caller
		// context to propagate: the op must run to completion regardless —
		// the caller's await has its own deadline.
		err = w.eng.store.AppendPoints(context.Background(), w.series, op.values)
	case opLabel:
		if ts, ok := w.eng.store.(TypedLabelStore); ok && op.typed {
			err = ts.AppendTypedLabel(context.Background(), w.series, op.start, op.end, op.anomalous, op.class)
		} else {
			err = w.eng.store.AppendLabel(context.Background(), w.series, op.start, op.end, op.anomalous)
		}
	case opBarrier:
		// Nothing: completing it is the point.
	}
	if op.kind == opPoints || op.kind == opLabel {
		if err != nil {
			w.eng.counters.walAppendErrors.Add(1)
			w.eng.log.Error("wal append failed", "series", w.series, "err", err)
		} else if deadline > 0 && time.Since(started) > deadline {
			// A write that completed but blew its budget counts as a
			// violation for the recovery hysteresis, not as an error.
			w.m.lastViolation.Store(time.Now().UnixNano())
		}
	}
	w.mu.Lock()
	w.pendingOps--
	w.buffered -= len(op.values)
	w.mu.Unlock()
	if op.done != nil {
		op.done <- err
	}
}

// await waits for an op's result up to the deadline (and ctx). completed
// is false on a deadline or context miss; the op still executes in the
// background and its accounting happens in exec.
func (w *walWriter) await(ctx context.Context, done chan error, deadline time.Duration) (err error, completed bool) {
	var timer <-chan time.Time
	if deadline > 0 {
		t := time.NewTimer(deadline)
		defer t.Stop()
		timer = t.C
	}
	select {
	case err := <-done:
		return err, true
	case <-timer:
		return nil, false
	case <-ctx.Done():
		return ctx.Err(), false
	}
}

// createSeries writes the series' meta record through the queue (ordered
// before any racing points op) and waits for it, so Create keeps its
// synchronous error contract.
func (w *walWriter) createSeries(meta tsdb.Meta) error {
	done := make(chan error, 1)
	if !w.enqueue(walOp{kind: opMeta, meta: meta, done: done}) {
		return stalledf("wal writer for %q is saturated or closed", w.series)
	}
	err, completed := w.await(context.Background(), done, time.Duration(w.eng.walDeadline.Load()))
	if !completed {
		return stalledf("wal create for %q timed out", w.series)
	}
	return err
}

// appendLabel routes one label record through the queue (typed when the
// action carries an anomaly class). Healthy path: wait up to the WAL
// deadline, flipping degraded on a miss. Degraded path: enqueue without
// waiting. Callers hold m.mu.
func (w *walWriter) appendLabel(ctx context.Context, start, end int, anomalous bool, class uint8, typed bool) {
	op := walOp{kind: opLabel, start: start, end: end, anomalous: anomalous, class: class, typed: typed}
	if w.m.degraded {
		if !w.enqueue(op) {
			w.eng.log.Error("wal label dropped: writer saturated", "series", w.series)
		}
		return
	}
	op.done = make(chan error, 1)
	if !w.enqueue(op) {
		w.eng.enterDegraded(w.m, "wal writer saturated")
		w.eng.log.Error("wal label dropped: writer saturated", "series", w.series)
		return
	}
	if _, completed := w.await(ctx, op.done, time.Duration(w.eng.walDeadline.Load())); !completed {
		w.m.lastViolation.Store(time.Now().UnixNano())
		w.eng.enterDegraded(w.m, "wal label write blew its deadline")
	}
}

// shutdown closes the queue (idempotent) and waits up to timeout for the
// writer to drain, reporting whether it did.
func (w *walWriter) shutdown(timeout time.Duration) bool {
	w.mu.Lock()
	if !w.closed {
		w.closed = true
		close(w.ops)
	}
	w.mu.Unlock()
	if timeout <= 0 {
		return true
	}
	select {
	case <-w.drained:
		return true
	case <-time.After(timeout):
		return false
	}
}
