package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"opprentice/internal/engine"
	"opprentice/internal/tsdb"
)

// span is one timed call into a layer. Parent is the id of the span that
// caused it (0 for a root); Req groups the spans of one request.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
}

// tracer keeps spans in memory for the traced run and writes them out at
// the end. A nil tracer records nothing, so untraced code paths call it
// freely.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	counts map[string]int64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: map[string]int64{}} }

// add bumps a counter recorded at a layer boundary.
func (t *tracer) add(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// count returns a counter's value.
func (t *tracer) count(name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Start: now, Parent: parent, Req: req})
	return len(t.spans)
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// sample records a value measured elsewhere (such as a lag between two
// engine hooks) as a span of that length ending now.
func (t *tracer) sample(name string, ms float64) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Start: now - int64(ms*1e6), End: now})
}

// layerStats reduces the spans of one name.
type layerStats struct {
	Count  int
	BusyMs float64   // sum of span durations
	SelfMs float64   // busy time minus the time covered by child spans
	Durs   []float64 // span durations in ms, ascending
}

// reduce groups the spans by name into counts, busy and self time.
func (t *tracer) reduce() map[string]*layerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]*layerStats{}
	childNs := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			childNs[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range t.spans {
		ls := out[s.Name]
		if ls == nil {
			ls = &layerStats{}
			out[s.Name] = ls
		}
		d := float64(s.End-s.Start) / 1e6
		ls.Count++
		ls.BusyMs += d
		ls.SelfMs += d - float64(childNs[s.ID])/1e6
		ls.Durs = append(ls.Durs, d)
	}
	for _, ls := range out {
		sort.Float64s(ls.Durs)
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedStore is the traced run's tsdb decorator: it times the durable
// point appends and the loads Restore makes. Embedding *tsdb.Store forwards
// every other method, including the optional AppendTypedLabel the engine
// type-asserts for, so the traced engine runs the same code as the
// untraced one.
type timedStore struct {
	*tsdb.Store
	t *tracer
}

var (
	_ engine.Store           = (*timedStore)(nil)
	_ engine.TypedLabelStore = (*timedStore)(nil)
)

func (s *timedStore) AppendPoints(ctx context.Context, name string, values []float64) error {
	span := "tsdb.append_wait"
	if len(values) > 1 {
		span = "tsdb.append_wait_bulk" // kept apart from the per-point appends
	}
	id := s.t.begin(span, 0, 0)
	err := s.Store.AppendPoints(ctx, name, values)
	s.t.end(id)
	s.t.add("tsdb.append_calls", 1)
	s.t.add("tsdb.appended_points", int64(len(values)))
	return err
}

func (s *timedStore) Load(name string) (*tsdb.Loaded, error) {
	id := s.t.begin("tsdb.load", 0, 0)
	defer s.t.end(id)
	return s.Store.Load(name)
}
