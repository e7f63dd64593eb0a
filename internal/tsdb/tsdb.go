// Package tsdb persists per-series time-series state in a sharded,
// segment-based write-ahead log of length-delimited binary records.
//
// Series are hashed across a fixed set of shard directories; each shard owns
// a sequence of append-only segment files and a single appender goroutine
// that batches concurrent writes into group-commit frames — one
// varint-framed, CRC32-C-protected frame per write+fsync, carrying interned
// series IDs (a per-shard name dictionary) and XOR-compressed point
// payloads. Writers submit without blocking (Submit) and learn the outcome
// from a completion the appender runs after the frame's fsync; the
// synchronous CreateSeries/AppendPoints/AppendLabel/AppendTypedLabel wrap
// that submit with a wait. The design goals, in order:
//
//   - Durability with attribution: an append acknowledged to the caller has
//     been fsynced; a torn tail from a crash loses only unacknowledged
//     writes; a flipped byte fails the frame CRC and quarantines exactly the
//     series the frame names, never its shard neighbours.
//   - Million-series scale: a handful of open files per shard, not one per
//     series; a per-series extent index built by one sequential scan at Open
//     so Load reads only its own frames; group commit amortizes fsync across
//     every series that wrote in the window.
//   - Cheap bytes: interned IDs instead of names, Gorilla-style XOR float
//     compression chained across frames, and shared frame overhead per
//     commit batch put steady-state WAL cost at a few bytes per point,
//     versus ~40+ for the JSON-lines format this replaced.
//
// The one-file-per-series JSON-lines format this replaced ("<name>.wal") is
// not read: Open refuses a directory that still holds such a log.
// Quarantine retires a damaged series with a durable tombstone record,
// which keeps the damaged frames inspectable (`opprenticectl wal cat`)
// while freeing the name. Segment rotation caps file size, and
// compaction deletes only sealed segments holding exclusively tombstoned
// state — retention never drops anything a replay could still need.
package tsdb

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"opprentice/internal/timeseries"
)

// ErrCorrupt is wrapped by errors caused by a damaged log (checksum
// mismatch, malformed or semantically invalid records) as opposed to I/O
// errors. Callers can errors.Is for it to decide on quarantine.
var ErrCorrupt = errors.New("corrupt WAL")

// Meta describes a series at creation time.
type Meta struct {
	Name            string    `json:"name"`
	Start           time.Time `json:"start"`
	IntervalSeconds int       `json:"interval_seconds"`
	Recall          float64   `json:"recall"`
	Precision       float64   `json:"precision"`
	Trees           int       `json:"trees"`
	WebhookURL      string    `json:"webhook_url,omitempty"`
	RetrainEvery    int       `json:"retrain_every,omitempty"`
	// Predictor and EVTQ carry the series' cThld-predictor configuration
	// (core.PredictorKind wire code; 0 = EWMA). A series with non-default
	// values writes an opMetaV2 record; zero-valued config keeps the
	// original opMeta byte stream so old logs and new default-config logs
	// stay bit-identical.
	Predictor uint8   `json:"predictor,omitempty"`
	EVTQ      float64 `json:"evt_q,omitempty"`
}

// Loaded is a series reconstructed from its log.
type Loaded struct {
	Meta   Meta
	Values []float64
	Labels []bool
	// Types carries the per-point anomaly class (core.AnomalyClass wire
	// codes; 0 = none/untyped). It is nil when the log holds no typed label
	// record — series labeled without a type — and otherwise
	// runs parallel to Labels.
	Types []uint8
}

// Option configures Open.
type Option func(*options)

type options struct {
	shards       int
	segmentBytes int64
	groupCommit  time.Duration
}

// WithShards sets the shard count for a fresh data directory (default 8).
// Reopening an existing directory always uses the shard count found on
// disk; the option is then ignored.
func WithShards(n int) Option {
	return func(o *options) {
		if n > 0 {
			o.shards = n
		}
	}
}

// WithSegmentBytes sets the segment rotation threshold (default 64 MiB).
func WithSegmentBytes(n int64) Option {
	return func(o *options) {
		if n > 0 {
			o.segmentBytes = n
		}
	}
}

// WithGroupCommit sets the group-commit accumulation window. Zero (the
// default) commits whatever is queued the moment the appender is free; a
// positive window holds each batch open that long, trading single-writer
// latency for fewer, larger fsyncs under concurrency.
func WithGroupCommit(d time.Duration) Option {
	return func(o *options) {
		if d > 0 {
			o.groupCommit = d
		}
	}
}

// Store is a sharded segment store rooted at one directory. All methods are
// safe for concurrent use.
type Store struct {
	dir    string
	opts   options
	shards []*shard

	// opMu is the close barrier: mutating ops hold it for read while
	// enqueueing to an appender, Close takes it for write so no enqueue can
	// race the appender shutdown.
	opMu   sync.RWMutex
	closed bool
}

// extent locates one frame referencing a series: segment sequence number,
// byte offset of the frame's length varint, and total frame size.
type extent struct {
	seq  uint64
	off  int64
	size int64
}

// series is the in-memory index entry of one interned series.
type series struct {
	id      uint64
	name    string
	extents []extent
	corrupt bool

	// chain is the XOR encoder state after the last committed point;
	// chainReady is false after a reopen until the appender (or a full Load)
	// replays the series once.
	chain      xorChain
	chainReady bool
}

// segState tracks one segment file for rotation and compaction. liveRefs
// counts distinct live-series references per frame plus pending tombstone
// holds; a sealed segment at zero holds only retired state and may be
// deleted.
type segState struct {
	seq      uint64
	size     int64
	liveRefs int
}

// deadRecord defers deletion of a tombstone's segment until every older
// segment holding the retired series' data is gone — deleting the tombstone
// first could resurrect the series after a crash between the two removals.
type deadRecord struct {
	id      uint64
	segs    map[uint64]bool // segments (≠ tombSeq) still holding its frames
	tombSeq uint64
}

type shard struct {
	store *Store
	id    int
	dir   string

	mu       sync.Mutex
	byName   map[string]*series
	byID     map[uint64]*series
	nextID   uint64 // last assigned ID
	segs     []*segState
	dead     []*deadRecord
	poisoned bool  // structural corruption: every indexed series is unreadable
	failed   error // sticky write failure

	// Committed tail of the newest segment. The appender truncates to
	// activeSize before its first write when torn is set (Open never mutates
	// the directory, so read-only probes stay safe on a live store), and
	// seals the segment first when rotateFirst is set (corruption
	// mid-segment must stay on disk, inspectable, not be overwritten).
	activeSeq   uint64
	activeSize  int64
	torn        bool
	rotateFirst bool

	// The appender's queue: enqueue appends under qmu and pokes wake
	// (capacity 1); the appender swaps the slice out whole with spare, its
	// own drained backing array.
	qmu   sync.Mutex
	queue []request
	spare []request
	wake  chan struct{}
	quit  chan struct{}
	wg    sync.WaitGroup

	// Appender-owned; nil until the first write after Open.
	active *os.File
}

// Open opens (or initializes) the store rooted at dir. Opening is read-only
// apart from creating missing directories: a second Store may safely probe
// a directory another Store is writing.
func Open(dir string, opt ...Option) (*Store, error) {
	o := options{shards: 8, segmentBytes: 64 << 20}
	for _, fn := range opt {
		fn(&o)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tsdb: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("tsdb: %w", err)
	}
	existing := 0
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "shard-") {
			existing++
		}
		if e.Type().IsRegular() && strings.HasSuffix(e.Name(), ".wal") {
			return nil, fmt.Errorf("tsdb: %s: legacy JSON-lines WAL format is unsupported",
				filepath.Join(dir, e.Name()))
		}
	}
	n := o.shards
	if existing > 0 {
		n = existing // the on-disk layout wins over the option
	}
	s := &Store{dir: dir, opts: o}
	for i := 0; i < n; i++ {
		sh := &shard{
			store:  s,
			id:     i,
			dir:    filepath.Join(dir, shardDirName(i)),
			byName: make(map[string]*series),
			byID:   make(map[uint64]*series),
			wake:   make(chan struct{}, 1),
			quit:   make(chan struct{}),
		}
		if err := sh.scan(); err != nil {
			return nil, err
		}
		s.shards = append(s.shards, sh)
	}
	for _, sh := range s.shards {
		sh.wg.Add(1)
		go sh.run()
	}
	return s, nil
}

func shardDirName(i int) string { return fmt.Sprintf("shard-%03d", i) }

func segFileName(seq uint64) string { return fmt.Sprintf("%08d.seg", seq) }

// shardFor hashes a series name onto its owning shard.
func (s *Store) shardFor(name string) *shard {
	return s.shards[shardIndex(name, len(s.shards))]
}

func shardIndex(name string, shards int) int {
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % uint32(shards))
}

// WriteKind names the record a Write carries.
type WriteKind uint8

const (
	// WriteMeta creates the series described by Write.Meta.
	WriteMeta WriteKind = iota + 1
	// WritePoints appends Write.Values.
	WritePoints
	// WriteLabel labels [Start, End) as Anomalous.
	WriteLabel
	// WriteTypedLabel is WriteLabel carrying an anomaly Class.
	WriteTypedLabel
	// writeTombstone retires the series (Quarantine, Remove).
	writeTombstone
)

// Write is one durable record for one series' log.
type Write struct {
	Kind WriteKind
	// Name names the series; a WriteMeta takes it from Meta.Name.
	Name string
	Meta Meta
	// Values are the points of a WritePoints, in order. Submit holds the
	// slice, not a copy, until the completion runs.
	Values []float64
	// Start, End, Anomalous and Class describe a label over the half-open
	// range [Start, End); Class uses the core.AnomalyClass wire codes and is
	// read only by WriteTypedLabel (replay exposes it via Loaded.Types).
	Start, End int
	Anomalous  bool
	Class      uint8
}

// check validates w, resolving a meta write's Name.
func (w *Write) check() error {
	if w.Kind == WriteMeta {
		w.Name = w.Meta.Name
	}
	if err := timeseries.ValidName(w.Name); err != nil {
		return fmt.Errorf("tsdb: %w", err)
	}
	switch w.Kind {
	case WriteMeta:
	case WritePoints:
		if len(w.Values) == 0 {
			return errors.New("tsdb: empty points write")
		}
	case WriteLabel, WriteTypedLabel:
		if w.Start < 0 || w.End <= w.Start {
			return fmt.Errorf("tsdb: invalid label range [%d, %d)", w.Start, w.End)
		}
	default:
		return fmt.Errorf("tsdb: unknown write kind %d", w.Kind)
	}
	return nil
}

// Submit queues one write on its series' shard appender and returns without
// waiting for disk: it never blocks on a commit in progress, and the queue
// preallocates nothing per series. When Submit returns nil, done runs
// exactly once on the appender goroutine — after the frame carrying w was
// fsynced (nil), or with the error that refused it. Writes to one series
// reach the log, and complete, in submission order. done must be cheap and
// must not block. An invalid write or a closed store returns an error and
// done never runs.
func (s *Store) Submit(w Write, done func(error)) error {
	if err := w.check(); err != nil {
		return err
	}
	return s.submit(w, done)
}

func (s *Store) submit(w Write, done func(error)) error {
	s.opMu.RLock()
	defer s.opMu.RUnlock()
	if s.closed {
		return errors.New("tsdb: store is closed")
	}
	s.shardFor(w.Name).enqueue(request{Write: w, done: done})
	return nil
}

// await submits w and waits for its completion, or for ctx: cancellation
// abandons the wait, not the write, which may still commit.
func (s *Store) await(ctx context.Context, w Write) error {
	res := make(chan error, 1)
	if err := s.submit(w, func(err error) { res <- err }); err != nil {
		return err
	}
	select {
	case err := <-res:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// write is the synchronous form of Submit.
func (s *Store) write(ctx context.Context, w Write) error {
	if err := w.check(); err != nil {
		return err
	}
	return s.await(ctx, w)
}

// CreateSeries durably registers a new series. The name must be unused; a
// tombstoned name may be reused.
func (s *Store) CreateSeries(meta Meta) error {
	return s.write(context.Background(), Write{Kind: WriteMeta, Meta: meta})
}

// AppendPoints durably appends a batch of consecutive point values. It
// returns once the batch's group-commit frame has been fsynced, or once ctx
// is done — cancellation abandons the wait, not the write, which may still
// commit.
func (s *Store) AppendPoints(ctx context.Context, name string, values []float64) error {
	if len(values) == 0 {
		if err := timeseries.ValidName(name); err != nil {
			return fmt.Errorf("tsdb: %w", err)
		}
		return nil
	}
	// The appender holds the slice until commit, and a canceled wait
	// returns before that: copy so the caller may reuse its buffer at once.
	return s.write(ctx, Write{Kind: WritePoints, Name: name, Values: append([]float64(nil), values...)})
}

// AppendLabel durably records one label action over the half-open range
// [start, end). Context semantics match AppendPoints.
func (s *Store) AppendLabel(ctx context.Context, name string, start, end int, anomalous bool) error {
	return s.write(ctx, Write{Kind: WriteLabel, Name: name, Start: start, End: end, Anomalous: anomalous})
}

// AppendTypedLabel durably records one label action carrying an anomaly
// class over the half-open range [start, end). Context semantics match
// AppendPoints. class uses the core.AnomalyClass wire codes; replay exposes
// it via Loaded.Types.
func (s *Store) AppendTypedLabel(ctx context.Context, name string, start, end int, anomalous bool, class uint8) error {
	return s.write(ctx, Write{Kind: WriteTypedLabel, Name: name, Start: start, End: end, Anomalous: anomalous, Class: class})
}

// Load replays one series and returns its state. Damaged frames (or a
// semantically invalid record sequence) yield an error wrapping ErrCorrupt.
func (s *Store) Load(name string) (*Loaded, error) {
	if err := timeseries.ValidName(name); err != nil {
		return nil, fmt.Errorf("tsdb: %w", err)
	}
	sh := s.shardFor(name)
	sh.mu.Lock()
	ser := sh.byName[name]
	if ser == nil {
		sh.mu.Unlock()
		return nil, fmt.Errorf("tsdb: no series %q: %w", name, fs.ErrNotExist)
	}
	if ser.corrupt {
		sh.mu.Unlock()
		return nil, fmt.Errorf("tsdb: %s: damaged segment frame (%w)", name, ErrCorrupt)
	}
	extents := append([]extent(nil), ser.extents...)
	warm := ser.chainReady
	sh.mu.Unlock()

	loaded, chain, err := sh.replay(name, ser.id, extents)
	if err != nil {
		return nil, err
	}
	if !warm {
		// The replay just reproduced the encoder chain; hand it to the
		// appender so its first post-reopen write skips the rebuild. Skip if
		// anything advanced the series meanwhile.
		sh.mu.Lock()
		if !ser.chainReady && len(ser.extents) == len(extents) {
			ser.chain = chain
			ser.chainReady = true
		}
		sh.mu.Unlock()
	}
	return loaded, nil
}

// replay reads the extents of one series and rebuilds its state, returning
// the final XOR chain alongside.
func (sh *shard) replay(name string, id uint64, extents []extent) (*Loaded, xorChain, error) {
	var (
		loaded   Loaded
		chain    xorChain
		haveMeta bool
	)
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("tsdb: %s: %s (%w)", name, fmt.Sprintf(format, args...), ErrCorrupt)
	}
	err := sh.readExtents(extents, func(body []byte) error {
		return parseSubs(body[1:len(body)-4], func(sub *subRecord) error {
			if sub.id != id {
				return nil // group-commit frame shared with other series
			}
			switch sub.op {
			case opSeries:
				// The interning record; nothing to replay.
			case opMeta, opMetaV2:
				if haveMeta {
					return corrupt("duplicate meta")
				}
				haveMeta = true
				loaded.Meta = sub.meta
				loaded.Meta.Name = name
			case opPoints:
				if !haveMeta {
					return corrupt("points before meta")
				}
				var err error
				loaded.Values, err = decodePoints(sub, &chain, loaded.Values)
				if err != nil {
					return err
				}
				for len(loaded.Labels) < len(loaded.Values) {
					loaded.Labels = append(loaded.Labels, false)
				}
				for loaded.Types != nil && len(loaded.Types) < len(loaded.Values) {
					loaded.Types = append(loaded.Types, 0)
				}
			case opLabel, opTypedLabel:
				if !haveMeta {
					return corrupt("label before meta")
				}
				if sub.end > len(loaded.Labels) {
					return corrupt("label [%d, %d) beyond %d points", sub.start, sub.end, len(loaded.Labels))
				}
				if sub.op == opTypedLabel && loaded.Types == nil {
					loaded.Types = make([]uint8, len(loaded.Labels))
				}
				class := uint8(0)
				if sub.anomalous && sub.op == opTypedLabel {
					class = sub.class
				}
				for i := sub.start; i < sub.end; i++ {
					loaded.Labels[i] = sub.anomalous
					if loaded.Types != nil {
						// A plain label over a typed range clears the class:
						// the channels never disagree about anomalousness.
						loaded.Types[i] = class
					}
				}
			case opTombstone:
				// Unreachable for a live binding; ignore.
			}
			return nil
		})
	})
	if err != nil {
		return nil, chain, err
	}
	if !haveMeta {
		return nil, chain, corrupt("log has no meta record")
	}
	return &loaded, chain, nil
}

// readExtents streams the frames named by extents (in order), re-verifying
// each frame's CRC, and hands each full body (kind byte through CRC) to fn.
// Extents are grouped by segment so each file is opened once.
func (sh *shard) readExtents(extents []extent, fn func(body []byte) error) error {
	var (
		f   *os.File
		seq uint64
	)
	defer func() {
		if f != nil {
			f.Close()
		}
	}()
	for _, ext := range extents {
		if f == nil || ext.seq != seq {
			if f != nil {
				f.Close()
			}
			var err error
			f, err = os.Open(filepath.Join(sh.dir, segFileName(ext.seq)))
			if err != nil {
				return fmt.Errorf("tsdb: %w", err)
			}
			seq = ext.seq
		}
		buf := make([]byte, ext.size)
		if _, err := f.ReadAt(buf, ext.off); err != nil {
			return fmt.Errorf("tsdb: read frame: %w", err)
		}
		body, err := frameBody(buf)
		if err != nil {
			return err
		}
		if err := fn(body); err != nil {
			return err
		}
	}
	return nil
}

// List returns every known series name, including corrupt ones so restore
// can quarantine them, sorted.
func (s *Store) List() ([]string, error) {
	var names []string
	for _, sh := range s.shards {
		sh.mu.Lock()
		for name := range sh.byName {
			names = append(names, name)
		}
		sh.mu.Unlock()
	}
	sort.Strings(names)
	return names, nil
}

// Quarantine retires a damaged series with a durable tombstone: the name
// becomes reusable, replay drops its state, and the damaged frames stay on
// disk for inspection (wal cat) until compaction finds them fully retired.
// The returned string names where the evidence lives.
func (s *Store) Quarantine(name string) (string, error) {
	if err := timeseries.ValidName(name); err != nil {
		return "", fmt.Errorf("tsdb: %w", err)
	}
	sh := s.shardFor(name)
	sh.mu.Lock()
	_, exists := sh.byName[name]
	sh.mu.Unlock()
	if !exists {
		return "", fmt.Errorf("tsdb: quarantine: no series %q: %w", name, fs.ErrNotExist)
	}
	if err := s.await(context.Background(), Write{Kind: writeTombstone, Name: name}); err != nil {
		return "", err
	}
	return fmt.Sprintf("%s (tombstoned; frames retained until compaction)", sh.dir), nil
}

// Remove deletes a series with a durable tombstone. Removing an unknown
// series is a no-op.
func (s *Store) Remove(name string) error {
	if err := timeseries.ValidName(name); err != nil {
		return fmt.Errorf("tsdb: %w", err)
	}
	sh := s.shardFor(name)
	sh.mu.Lock()
	_, exists := sh.byName[name]
	sh.mu.Unlock()
	if !exists {
		return nil
	}
	return s.await(context.Background(), Write{Kind: writeTombstone, Name: name})
}

// Compact deletes sealed segments that hold only tombstoned state. The
// appenders also run this opportunistically after every rotation.
func (s *Store) Compact() error {
	var first error
	for _, sh := range s.shards {
		sh.mu.Lock()
		err := sh.compactLocked()
		sh.mu.Unlock()
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close stops the appenders (draining already queued writes), flushes, and
// closes every segment handle.
func (s *Store) Close() error {
	s.opMu.Lock()
	if s.closed {
		s.opMu.Unlock()
		return nil
	}
	s.closed = true
	s.opMu.Unlock()
	for _, sh := range s.shards {
		close(sh.quit)
	}
	var first error
	for _, sh := range s.shards {
		sh.wg.Wait()
		sh.mu.Lock()
		if sh.failed != nil && first == nil {
			first = sh.failed
		}
		sh.mu.Unlock()
	}
	return first
}

// compactLocked implements Compact for one shard; the caller holds sh.mu.
// Deletion re-runs to a fixpoint: a tombstone's own segment only becomes
// deletable once every older segment holding the retired series' data is
// gone.
func (sh *shard) compactLocked() error {
	if sh.poisoned {
		// Structural damage: the index may be incomplete, so no segment can
		// be proven fully retired. Keep everything for inspection.
		return nil
	}
	for {
		changed := false
		for i := 0; i < len(sh.segs); i++ {
			sg := sh.segs[i]
			if sg.seq == sh.activeSeq || sg.liveRefs > 0 {
				continue
			}
			if err := os.Remove(filepath.Join(sh.dir, segFileName(sg.seq))); err != nil {
				return fmt.Errorf("tsdb: compact: %w", err)
			}
			sh.segs = append(sh.segs[:i], sh.segs[i+1:]...)
			i--
			changed = true
			// Release tombstone holds whose retired data just disappeared.
			for j := 0; j < len(sh.dead); j++ {
				dr := sh.dead[j]
				if !dr.segs[sg.seq] {
					continue
				}
				delete(dr.segs, sg.seq)
				if len(dr.segs) == 0 {
					sh.segRef(dr.tombSeq, -1)
					sh.dead = append(sh.dead[:j], sh.dead[j+1:]...)
					j--
				}
			}
		}
		if !changed {
			return nil
		}
	}
}

// segRef adjusts the live-reference count of one segment.
func (sh *shard) segRef(seq uint64, delta int) {
	if sg := sh.segState(seq); sg != nil {
		sg.liveRefs += delta
	}
}

func (sh *shard) segState(seq uint64) *segState {
	for _, sg := range sh.segs {
		if sg.seq == seq {
			return sg
		}
	}
	return nil
}

// retireLocked removes a series' live binding after its tombstone committed
// (or was scanned): the data references are released, and the tombstone's
// segment takes one hold per retired series until compaction deletes the
// data segments. The caller holds sh.mu.
func (sh *shard) retireLocked(ser *series, tombSeq uint64) {
	if sh.byName[ser.name] == ser {
		delete(sh.byName, ser.name)
	}
	delete(sh.byID, ser.id)
	segs := make(map[uint64]bool)
	for _, ext := range ser.extents {
		segs[ext.seq] = true
	}
	for seq := range segs {
		sh.segRef(seq, -1)
	}
	delete(segs, tombSeq) // data in the tombstone's own segment dies with it
	if len(segs) > 0 {
		sh.segRef(tombSeq, +1)
		sh.dead = append(sh.dead, &deadRecord{id: ser.id, segs: segs, tombSeq: tombSeq})
	}
}
