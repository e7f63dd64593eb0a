// Package registry is the model registry: a per-series, versioned,
// checksummed store for trained model artifacts (core.SaveModel snapshots).
// It is what lets the daemon restart warm — serving from the last published
// classifier instead of retraining every series from scratch — and what
// gives operators explicit rollback when a weekly retrain goes wrong.
//
// # Layout
//
// Each series owns a subdirectory of the registry root:
//
//	<dir>/<series>/
//	    manifest.json            generation index + current pointer
//	    000000000001.model       CRC32-C framed gob snapshot, one per generation
//	    000000000002.model
//	    000000000002.model.corrupt   a quarantined artifact (set aside, kept)
//
// # Durability discipline
//
// Every artifact is framed (magic, length, CRC32-C) and written via
// temp-file → fsync → atomic rename → directory fsync, then the manifest is
// rewritten the same way. A crash at any point leaves either the previous
// manifest (pointing at the previous, intact generation) or the new one; a
// torn temp file is ignored and swept on the next publish. Load walks the
// manifest's generations newest-current-first and quarantines (renames to
// *.corrupt) any artifact whose frame or checksum fails, so one flipped bit
// costs one generation, never the series.
//
// # Generations, retention, rollback
//
// Publish appends a monotonically increasing generation and points `current`
// at it, pruning all but the last Keep generations (the current one is never
// pruned). Rollback moves `current` one loadable generation backwards;
// generations newer than `current` are deliberately skipped by Load until a
// new publish supersedes them.
package registry

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"opprentice/internal/timeseries"
)

// Typed errors. Callers errors.Is against these to pick a fallback rung.
var (
	// ErrCorruptArtifact: an artifact file failed its frame or checksum
	// validation (it has been quarantined).
	ErrCorruptArtifact = errors.New("corrupt model artifact")
	// ErrCorruptManifest: a series' manifest.json failed to parse or
	// validate (it has been quarantined on load).
	ErrCorruptManifest = errors.New("corrupt model manifest")
	// ErrNoArtifact: the series has no loadable generation (never published,
	// or every candidate failed validation).
	ErrNoArtifact = errors.New("no loadable model artifact")
	// ErrUnknownSeries: the registry holds nothing for this series.
	ErrUnknownSeries = errors.New("unknown series")
)

// artifactMagic opens every framed artifact file.
var artifactMagic = [8]byte{'O', 'P', 'P', 'R', 'M', 'D', 'L', '1'}

// crcTable is the Castagnoli polynomial, the usual choice for storage CRCs
// (and the same one the WAL uses).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

const manifestName = "manifest.json"

// Config configures Open.
type Config struct {
	// Dir is the registry root (created if missing).
	Dir string
	// Keep is how many generations to retain per series (default 3; the
	// current generation is always kept regardless).
	Keep int
	// Rename, when non-nil, replaces os.Rename for the atomic-publish step.
	// It exists for fault injection (simulating a rename failure mid-publish)
	// and must behave like os.Rename when it succeeds.
	Rename func(oldpath, newpath string) error
}

// Registry is a versioned model-artifact store rooted at a directory. All
// methods are safe for concurrent use; operations on the same series are
// serialized by a per-series lock.
type Registry struct {
	dir    string
	keep   int
	rename func(oldpath, newpath string) error

	mu    sync.Mutex
	locks map[string]*sync.Mutex

	checksumFailures atomic.Int64 // quarantined artifacts + manifests
}

// Open prepares a registry rooted at cfg.Dir, creating it if needed.
func Open(cfg Config) (*Registry, error) {
	if cfg.Dir == "" {
		return nil, errors.New("registry: directory required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	if cfg.Keep <= 0 {
		cfg.Keep = 3
	}
	if cfg.Rename == nil {
		cfg.Rename = os.Rename
	}
	return &Registry{
		dir:    cfg.Dir,
		keep:   cfg.Keep,
		rename: cfg.Rename,
		locks:  make(map[string]*sync.Mutex),
	}, nil
}

// Stats is a point-in-time snapshot of the registry's health counters.
type Stats struct {
	// ChecksumFailures counts artifacts and manifests that failed validation
	// and were quarantined.
	ChecksumFailures int64
}

// Stats returns the registry's health counters.
func (r *Registry) Stats() Stats {
	return Stats{ChecksumFailures: r.checksumFailures.Load()}
}

// Generation describes one published artifact in a series' manifest.
type Generation struct {
	// Gen is the monotonically increasing generation number.
	Gen uint64 `json:"gen"`
	// File is the artifact's file name inside the series directory.
	File string `json:"file"`
	// CRC is the CRC32-C of the artifact payload, duplicated from the frame
	// so the manifest and the file cross-check each other.
	CRC uint32 `json:"crc"`
	// Size is the payload size in bytes.
	Size int64 `json:"size"`
	// Fingerprint is the deployment fingerprint the model was trained under
	// (see core.ModelFingerprint).
	Fingerprint uint64 `json:"fingerprint"`
	// Points is how many series points the model had seen when published.
	Points int `json:"points"`
	// CThld is the classification threshold in force at publish time.
	CThld float64 `json:"cthld"`
	// TrainedAt is when the model finished training.
	TrainedAt time.Time `json:"trained_at"`
	// Artifacts is the multi-model artifact set: one kind-tagged entry per
	// model kind published under this generation (the verdict classifier,
	// the anomaly-type head, ...). Legacy single-model manifests omit it —
	// the top-level File/CRC/Size/Fingerprint fields then describe the
	// verdict artifact alone, and refs() synthesizes the equivalent set. In
	// the multi-model form the top-level fields mirror the verdict entry so
	// legacy readers keep working.
	Artifacts []ArtifactRef `json:"artifacts,omitempty"`
}

// Manifest is a series' generation index. The JSON tags double as the
// service's wire format for GET /v1/models/{series}.
type Manifest struct {
	Series string `json:"series"`
	// Current is the generation Load serves.
	Current     uint64       `json:"current"`
	Generations []Generation `json:"generations"` // ascending by Gen
}

// current returns the Generation Current points at, or nil.
func (m *Manifest) current() *Generation {
	for i := range m.Generations {
		if m.Generations[i].Gen == m.Current {
			return &m.Generations[i]
		}
	}
	return nil
}

// Info carries the publish-time metadata for a new generation.
type Info struct {
	Fingerprint uint64
	Points      int
	CThld       float64
	TrainedAt   time.Time
}

// Artifact is one loaded generation: the validated payload plus its
// manifest entry.
type Artifact struct {
	Generation
	Payload []byte
}

// lockFor returns the per-series mutex, creating it on first use.
func (r *Registry) lockFor(series string) *sync.Mutex {
	r.mu.Lock()
	defer r.mu.Unlock()
	l, ok := r.locks[series]
	if !ok {
		l = &sync.Mutex{}
		r.locks[series] = l
	}
	return l
}

// seriesDir validates the series name and returns its directory path.
func (r *Registry) seriesDir(series string) (string, error) {
	if err := timeseries.ValidName(series); err != nil {
		return "", fmt.Errorf("registry: %w", err)
	}
	return filepath.Join(r.dir, series), nil
}

func genFileName(gen uint64) string { return fmt.Sprintf("%012d.model", gen) }

// Publish writes payload as the series' next generation: artifact first
// (temp file, fsync, atomic rename, directory fsync), manifest second (same
// discipline). If anything fails before the manifest rename, the previous
// generation remains current and loadable; the orphaned artifact is swept by
// a later publish. Old generations beyond Keep are pruned after the manifest
// is durable. It is PublishSet with a verdict-only artifact set.
func (r *Registry) Publish(series string, info Info, payload []byte) (Generation, error) {
	return r.PublishSet(series, info, map[string][]byte{KindVerdict: payload})
}

// nextGen picks the next generation number: one past both the manifest's
// maximum and any stray artifact files on disk (from a crash between
// artifact rename and manifest write), in either the legacy or the
// kind-tagged file form.
func nextGen(man *Manifest, dir string) uint64 {
	var max uint64
	for _, g := range man.Generations {
		if g.Gen > max {
			max = g.Gen
		}
	}
	entries, err := os.ReadDir(dir)
	if err == nil {
		for _, e := range entries {
			if gen, ok := genOfArtifact(e.Name()); ok && gen > max {
				max = gen
			}
		}
	}
	return max + 1
}

// genOfArtifact parses the generation of an artifact file name, accepting
// the legacy verdict form 000000000001.model and the kind-tagged form
// 000000000001.<kind>.model. Quarantined files (*.corrupt) do not match.
func genOfArtifact(name string) (uint64, bool) {
	base, ok := strings.CutSuffix(name, ".model")
	if !ok {
		return 0, false
	}
	if i := strings.IndexByte(base, '.'); i >= 0 {
		base = base[:i]
	}
	if len(base) != 12 {
		return 0, false
	}
	gen, err := strconv.ParseUint(base, 10, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// sweepStray removes temp files and unreferenced artifact files left behind
// by a crash mid-publish. Quarantined (*.corrupt) files are kept for the
// operator.
func (r *Registry) sweepStray(dir string, man *Manifest) {
	referenced := make(map[string]bool, len(man.Generations))
	for _, g := range man.Generations {
		for _, ref := range g.refs() {
			referenced[ref.File] = true
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, ".tmp-"):
			_ = os.Remove(filepath.Join(dir, name))
		case strings.HasSuffix(name, ".model") && !referenced[name]:
			_ = os.Remove(filepath.Join(dir, name))
		}
	}
}

// pruneManifest drops all but the newest keep generations (never the current
// one), returning the dropped entries so their files can be removed after
// the manifest is durable.
func pruneManifest(man *Manifest, keep int) []Generation {
	sort.Slice(man.Generations, func(i, j int) bool { return man.Generations[i].Gen < man.Generations[j].Gen })
	if len(man.Generations) <= keep {
		return nil
	}
	cut := len(man.Generations) - keep
	var pruned []Generation
	kept := man.Generations[:0:0]
	for i, g := range man.Generations {
		if i < cut && g.Gen != man.Current {
			pruned = append(pruned, g)
			continue
		}
		kept = append(kept, g)
	}
	man.Generations = kept
	return pruned
}

// frame wraps a payload in the artifact file format:
// magic (8) | payload length (4, BE) | CRC32-C (4, BE) | payload.
func frame(payload []byte) []byte {
	buf := make([]byte, 0, 16+len(payload))
	buf = append(buf, artifactMagic[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(payload, crcTable))
	buf = append(buf, payload...)
	return buf
}

// unframe validates an artifact file's magic, length, and checksum,
// returning the payload. Every failure wraps ErrCorruptArtifact.
func unframe(data []byte) ([]byte, uint32, error) {
	if len(data) < 16 || string(data[:8]) != string(artifactMagic[:]) {
		return nil, 0, fmt.Errorf("bad magic or truncated header (%w)", ErrCorruptArtifact)
	}
	n := binary.BigEndian.Uint32(data[8:12])
	want := binary.BigEndian.Uint32(data[12:16])
	payload := data[16:]
	if uint32(len(payload)) != n {
		return nil, 0, fmt.Errorf("payload %d bytes, frame says %d (%w)", len(payload), n, ErrCorruptArtifact)
	}
	if got := crc32.Checksum(payload, crcTable); got != want {
		return nil, 0, fmt.Errorf("checksum mismatch: recorded %08x, computed %08x (%w)", want, got, ErrCorruptArtifact)
	}
	return payload, want, nil
}

// writeAtomic writes data to dir/name via temp file + fsync + atomic rename
// + directory fsync.
func (r *Registry) writeAtomic(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, ".tmp-"+name+"-")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := r.rename(tmpName, filepath.Join(dir, name)); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// writeManifest marshals and atomically replaces a series' manifest.
func (r *Registry) writeManifest(dir string, man *Manifest) error {
	sort.Slice(man.Generations, func(i, j int) bool { return man.Generations[i].Gen < man.Generations[j].Gen })
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	return r.writeAtomic(dir, manifestName, append(data, '\n'))
}

// readManifest loads and validates a series' manifest. A corrupt manifest is
// quarantined (renamed to manifest.json.corrupt) and reported as
// ErrCorruptManifest; a missing one as ErrUnknownSeries.
func (r *Registry) readManifest(series string) (*Manifest, error) {
	dir, err := r.seriesDir(series)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("registry: %s: %w", series, ErrUnknownSeries)
		}
		return nil, fmt.Errorf("registry: %w", err)
	}
	man, err := ParseManifest(data)
	if err != nil {
		r.checksumFailures.Add(1)
		_ = os.Rename(path, path+".corrupt")
		return nil, fmt.Errorf("registry: %s: %w", series, err)
	}
	return man, nil
}

// ParseManifest parses and validates manifest JSON. It never panics on
// arbitrary input (fuzzed); every validation failure wraps
// ErrCorruptManifest.
func ParseManifest(data []byte) (*Manifest, error) {
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("%v (%w)", err, ErrCorruptManifest)
	}
	seen := make(map[uint64]bool, len(man.Generations))
	var prev uint64
	for i, g := range man.Generations {
		if g.Gen == 0 {
			return nil, fmt.Errorf("generation %d has gen 0 (%w)", i, ErrCorruptManifest)
		}
		if seen[g.Gen] || g.Gen < prev {
			return nil, fmt.Errorf("generations not strictly ascending at gen %d (%w)", g.Gen, ErrCorruptManifest)
		}
		seen[g.Gen] = true
		prev = g.Gen
		if g.File == "" || strings.ContainsAny(g.File, "/\\") || strings.Contains(g.File, "..") {
			return nil, fmt.Errorf("generation %d has invalid file %q (%w)", g.Gen, g.File, ErrCorruptManifest)
		}
		if g.Size < 0 || g.Points < 0 {
			return nil, fmt.Errorf("generation %d has negative size or points (%w)", g.Gen, ErrCorruptManifest)
		}
		// Multi-model entries: validated only when present, so legacy
		// single-model manifests parse forever.
		if len(g.Artifacts) > 0 {
			kinds := make(map[string]bool, len(g.Artifacts))
			var vref *ArtifactRef
			for j := range g.Artifacts {
				ref := &g.Artifacts[j]
				if !validKind(ref.Kind) {
					return nil, fmt.Errorf("generation %d artifact %d has invalid kind %q (%w)", g.Gen, j, ref.Kind, ErrCorruptManifest)
				}
				if kinds[ref.Kind] {
					return nil, fmt.Errorf("generation %d has duplicate %q artifacts (%w)", g.Gen, ref.Kind, ErrCorruptManifest)
				}
				kinds[ref.Kind] = true
				if ref.File == "" || strings.ContainsAny(ref.File, "/\\") || strings.Contains(ref.File, "..") {
					return nil, fmt.Errorf("generation %d artifact %q has invalid file %q (%w)", g.Gen, ref.Kind, ref.File, ErrCorruptManifest)
				}
				if ref.Size < 0 {
					return nil, fmt.Errorf("generation %d artifact %q has negative size (%w)", g.Gen, ref.Kind, ErrCorruptManifest)
				}
				if ref.Kind == KindVerdict {
					vref = ref
				}
			}
			if vref == nil {
				return nil, fmt.Errorf("generation %d has artifacts but no %q entry (%w)", g.Gen, KindVerdict, ErrCorruptManifest)
			}
			if vref.File != g.File || vref.CRC != g.CRC || vref.Size != g.Size || vref.Fingerprint != g.Fingerprint {
				return nil, fmt.Errorf("generation %d verdict artifact does not mirror the legacy fields (%w)", g.Gen, ErrCorruptManifest)
			}
		}
	}
	if len(man.Generations) > 0 && !seen[man.Current] {
		return nil, fmt.Errorf("current gen %d not in generation list (%w)", man.Current, ErrCorruptManifest)
	}
	return &man, nil
}

// Load returns the newest loadable artifact at or below the series' current
// generation: the current one when intact, otherwise the fallback walk
// quarantines each damaged artifact (renames it to *.corrupt, counts a
// checksum failure) and tries the next older generation — a crash or bit
// flip costs one generation, never the series. Generations newer than
// current (rolled back from) are not considered. It is LoadSet reduced to
// the verdict artifact; secondary kinds are still validated (and damaged
// ones quarantined) along the way.
func (r *Registry) Load(series string) (*Artifact, error) {
	set, err := r.LoadSet(series)
	if err != nil {
		return nil, err
	}
	return &Artifact{Generation: set.Generation, Payload: set.Payloads[KindVerdict]}, nil
}

// Manifest returns a copy of the series' manifest.
func (r *Registry) Manifest(series string) (Manifest, error) {
	l := r.lockFor(series)
	l.Lock()
	defer l.Unlock()
	man, err := r.readManifest(series)
	if err != nil {
		return Manifest{}, err
	}
	out := *man
	out.Generations = append([]Generation(nil), man.Generations...)
	return out, nil
}

// List returns the series names with a manifest, sorted.
func (r *Registry) List() ([]string, error) {
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if _, err := os.Stat(filepath.Join(r.dir, e.Name(), manifestName)); err == nil {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// Rollback moves the series' current generation one loadable step backwards
// and returns the updated manifest. The abandoned newer generations stay in
// the manifest (and on disk) until a future publish prunes them, so a
// rollback can itself be inspected and audited. Rolling back with no older
// generation is an error.
func (r *Registry) Rollback(series string) (Manifest, error) {
	l := r.lockFor(series)
	l.Lock()
	defer l.Unlock()

	man, err := r.readManifest(series)
	if err != nil {
		return Manifest{}, err
	}
	dir, err := r.seriesDir(series)
	if err != nil {
		return Manifest{}, err
	}
	for i := len(man.Generations) - 1; i >= 0; i-- {
		g := man.Generations[i]
		if g.Gen >= man.Current {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, g.File)); err != nil {
			continue // pruned or quarantined; keep walking back
		}
		man.Current = g.Gen
		if err := r.writeManifest(dir, man); err != nil {
			return Manifest{}, fmt.Errorf("registry: rollback %s: %w", series, err)
		}
		out := *man
		out.Generations = append([]Generation(nil), man.Generations...)
		return out, nil
	}
	return Manifest{}, fmt.Errorf("registry: rollback %s: no older generation (%w)", series, ErrNoArtifact)
}

// Quarantine sets one generation's artifact aside (renames it to
// *.corrupt), for callers that discover higher-level damage the frame
// checksum cannot see — e.g. a snapshot that decodes but fails its format
// version check. The manifest entry is kept so the gap is auditable.
func (r *Registry) Quarantine(series string, gen uint64) error {
	l := r.lockFor(series)
	l.Lock()
	defer l.Unlock()

	man, err := r.readManifest(series)
	if err != nil {
		return err
	}
	dir, err := r.seriesDir(series)
	if err != nil {
		return err
	}
	for _, g := range man.Generations {
		if g.Gen != gen {
			continue
		}
		// Every kind of the generation is set aside: damage the frame cannot
		// see (a decodable-but-unloadable snapshot) discredits the whole
		// trained set. A secondary kind already missing is fine; a verdict
		// rename failure is not.
		for _, ref := range g.refs() {
			path := filepath.Join(dir, ref.File)
			if err := os.Rename(path, path+".corrupt"); err != nil {
				if ref.Kind == KindVerdict {
					return fmt.Errorf("registry: quarantine %s gen %d: %w", series, gen, err)
				}
				continue
			}
			r.checksumFailures.Add(1)
		}
		return nil
	}
	return fmt.Errorf("registry: quarantine %s: no generation %d", series, gen)
}
