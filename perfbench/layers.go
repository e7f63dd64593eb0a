package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"opprentice/internal/core"
	"opprentice/internal/detectors"
	"opprentice/internal/engine"
	"opprentice/internal/ml/forest"
	"opprentice/internal/ml/tree"
	modelreg "opprentice/internal/registry"
	"opprentice/internal/timeseries"
)

// timed runs fn inside a span under the replays' root span and returns its
// wall time in ms.
func (b *bench) timed(name string, fn func() error) (float64, error) {
	id := b.t.begin(name, b.replayRoot, 0)
	t0 := time.Now()
	err := fn()
	ms := time.Since(t0).Seconds() * 1e3
	b.t.end(id)
	if err != nil {
		return 0, fmt.Errorf("%s replay: %w", name, err)
	}
	return ms, nil
}

// replays times each layer's public entry points on the sampled series'
// own data: the training stages on its week-N snapshot (N = the last
// weekly round), the scoring stages on its next week of points, and the
// restore stages on its published model.
func (b *bench) replays(ref *core.Monitor) error {
	b.replayRoot = b.t.begin("replays", 0, 0)
	defer b.t.end(b.replayRoot)
	i := b.sampled
	d := b.data[i]
	at := b.trainAt[i]
	weekN := at[len(at)-1]
	snap := prefix(d.Series.Start, d.Series.Values, weekN)
	labels := d.Labels[:weekN]
	L := b.layer

	var feats *core.Features
	var err error
	if L["core.extract_ms"], err = b.timed("core.extract", func() error {
		dets, err := detectors.Registry(time.Hour)
		if err == nil {
			feats, err = core.Extract(snap, dets, core.ExtractConfig{})
		}
		return err
	}); err != nil {
		return err
	}
	cache := core.NewFeatureCache(core.NewCacheBudget(1 << 30))
	dets, err := detectors.Registry(time.Hour)
	if err != nil {
		return err
	}
	if _, _, err := core.ExtractIncremental(cache, prefix(d.Series.Start, d.Series.Values, weekN-ppw), dets, core.ExtractConfig{}); err != nil {
		return err
	}
	if L["core.extract_incremental_ms"], err = b.timed("core.extract_incremental", func() error {
		dets, err := detectors.Registry(time.Hour)
		if err == nil {
			_, _, err = core.ExtractIncremental(cache, snap, dets, core.ExtractConfig{})
		}
		return err
	}); err != nil {
		return err
	}

	cols := feats.ImputedFull()
	var binned [][]uint8
	L["tree.binner_ms"], _ = b.timed("tree.binner", func() error {
		binned = tree.NewBinner(cols, tree.MaxBins).Bin(cols)
		return nil
	})
	L["tree.grow_ms"], _ = b.timed("tree.grow", func() error {
		growForest(binned, labels, engineDefaults.Forest.Trees, engineDefaults.Forest.Seed)
		return nil
	})
	var f *forest.Forest
	L["forest.train_ms"], _ = b.timed("forest.train", func() error {
		f = forest.Train(cols, labels, engineDefaults.Forest)
		return nil
	})
	L["core.cv_cthld_ms"], _ = b.timed("core.cv_cthld", func() error {
		core.CrossValidateCThld(cols, labels, 5, 1000, engineDefaults.Forest, engineDefaults.Preference)
		return nil
	})

	// Scoring stages, per point, over the week after the series' head.
	next := d.Series.Values[b.pos[i] : b.pos[i]+ppw]
	var vs []core.Verdict
	stepMs, _ := b.timed("core.step", func() error {
		for lo := 0; lo < len(next); lo += b.wl.batch {
			vs = ref.StepBatch(next[lo:lo+b.wl.batch], vs[:0])
		}
		return nil
	})
	L["core.step_us"] = stepMs * 1e3 / ppw
	live, err := detectors.Registry(time.Hour)
	if err != nil {
		return err
	}
	warmDetectors(live, d.Series.Values[:b.pos[i]])
	rows := make([]float64, 0, ppw*len(live))
	detMs, _ := b.timed("detectors.step", func() error {
		for _, v := range next {
			for _, det := range live {
				sev, _ := det.Step(v)
				rows = append(rows, sev)
			}
		}
		return nil
	})
	L["detectors.step_us"] = detMs * 1e3 / ppw
	probs := make([]float64, ppw)
	probMs, _ := b.timed("forest.prob", func() error {
		if b.wl.batch == 1 {
			for k := range probs {
				probs[k] = f.Prob(rows[k*len(live) : (k+1)*len(live)])
			}
		} else {
			f.ProbRowsInto(rows, len(live), probs)
		}
		return nil
	})
	L["forest.prob_us"] = probMs * 1e3 / ppw

	// Restore stages on the node's published model.
	var set *modelreg.LoadedSet
	if L["registry.loadset_ms"], err = b.timed("registry.loadset", func() error {
		set, err = b.n.models.LoadSet(b.names[i])
		return err
	}); err != nil {
		return err
	}
	recent := warmTail(prefix(d.Series.Start, d.Series.Values, b.pos[i]))
	L["core.load_monitor_ms"], err = b.timed("core.load_monitor", func() error {
		dets, err := detectors.Registry(time.Hour)
		if err == nil {
			_, err = core.LoadMonitor(bytes.NewReader(set.Payloads[modelreg.KindVerdict]), recent, dets,
				core.LoadConfig{Trees: engineDefaults.Forest.Trees, Preference: engineDefaults.Preference})
		}
		return err
	})
	return err
}

// growForest grows a forest's trees directly with tree.Grow: the same
// bootstrap samples, split rule and parallelism as forest.Train, without
// the binning.
func growForest(binned [][]uint8, labels []bool, trees int, seed int64) {
	n := len(labels)
	fps := int(math.Ceil(math.Sqrt(float64(len(binned)))))
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for t := w; t < trees; t += clients {
				rng := rand.New(rand.NewSource(seed + int64(t)*1_000_003))
				idx := make([]int, n)
				for k := range idx {
					idx[k] = rng.Intn(n)
				}
				tree.Grow(binned, labels, idx, tree.Config{MinLeaf: 1, FeaturesPerSplit: fps, Rng: rng})
			}
		}(w)
	}
	wg.Wait()
}

// warmDetectors fits the trainable configurations on history and steps
// every configuration through it, as training leaves them.
func warmDetectors(dets []detectors.Detector, history []float64) {
	for _, d := range dets {
		if t, ok := d.(detectors.Trainable); ok {
			_ = t.Fit(history) // a configuration that cannot fit steps unfitted; only its timing is wanted
		}
		for _, v := range history {
			d.Step(v)
		}
	}
}

// warmTail is the trailing history the engine re-warms detectors from when
// it restores a published model: six weeks.
func warmTail(s *timeseries.Series) *timeseries.Series {
	if n := 6 * ppw; s.Len() > n {
		return s.Slice(s.Len()-n, s.Len())
	}
	return s
}

// layers reduces the traced run to the per-layer metrics. counters are the
// engine's, read before the first close.
func (b *bench) layers(ref *core.Monitor, twin window, counters engine.Counters) error {
	if err := b.replays(ref); err != nil {
		return err
	}
	L := b.layer
	spans := b.t.reduce()
	names := make([]string, 0, len(spans))
	for name := range spans {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ls := spans[name]
		fmt.Fprintf(b.log, "span %-28s count %7d busy %10.1f ms self %10.1f ms\n", name, ls.Count, ls.BusyMs, ls.SelfMs)
	}
	p := func(name string, q float64) float64 {
		ls := spans[name]
		if ls == nil {
			return 0
		}
		if q == 0.5 {
			return median(ls.Durs)
		}
		v, err := percentile(ls.Durs, q)
		if err != nil {
			return ls.Durs[len(ls.Durs)-1] // too few samples for q: the largest
		}
		return v
	}
	// Span durations, not latency from the due time: the generator's own
	// lateness belongs to neither layer.
	L["service.self_us"] = (p("service.append", 0.50) - p("engine.append", 0.50)) * 1e3
	L["service.ingest_self_us"] = (1/b.ingestPPS - 1/b.twinPPS) * 1e6
	L["engine.append_us.p50"] = p("engine.append", 0.50) * 1e3
	L["engine.append_us.p99"] = p("engine.append", 0.99) * 1e3
	L["tsdb.append_wait_us.p50"] = p("tsdb.append_wait", 0.50) * 1e3
	L["tsdb.append_wait_us.p99"] = p("tsdb.append_wait", 0.99) * 1e3
	self := L["engine.append_us.p50"] - L["tsdb.append_wait_us.p50"]
	if b.wl.fleet == 0 {
		self -= L["core.step_us"]
	}
	L["engine.self_us"] = self
	L["engine.goroutines_per_series"] = b.goPer
	perPoint := 0
	for _, t := range b.tiers {
		perPoint += t.Sent
	}
	L["engine.shed_frac"] = float64(b.t.count("engine.sheds")) / float64(perPoint)
	L["engine.degraded_entered"] = float64(counters.DegradedEntered)
	L["engine.wal_lost_points"] = float64(counters.WALLostPoints)
	L["engine.train_other_ms"] = median(b.retrainMs) - L["core.extract_incremental_ms"] - L["forest.train_ms"]
	c := b.n.eng.Counters()
	if warm := c.ModelRestoreWarm + c.ModelRestoreCold; warm > 0 {
		L["engine.restore_warm_ratio"] = float64(c.ModelRestoreWarm) / float64(warm)
	}
	var loadMs float64
	if loads := spans["tsdb.load"]; loads != nil {
		loadMs = loads.BusyMs / restarts
	}
	// Restore spreads the series over min(8, GOMAXPROCS) workers.
	workers := float64(min(8, runtime.GOMAXPROCS(0)))
	stages := (loadMs + float64(len(b.names))*(L["registry.loadset_ms"]+L["core.load_monitor_ms"])) / workers
	L["engine.restore_other_ms"] = median(b.restoreS)*1e3 - stages
	L["tsdb.load_ms"] = p("tsdb.load", 0.50)
	if cold := counters.ExtractPointsCold + counters.ExtractPointsIncremental; cold > 0 {
		L["core.extract_cache_hit_ratio"] = float64(counters.ExtractPointsIncremental) / float64(cold)
	}
	L["core.extract_cache_kib_per_series"] = float64(counters.ExtractCacheBytes) / float64(len(b.names)) / 1024
	if pts := b.t.count("tsdb.appended_points"); pts > 0 {
		L["tsdb.appends_per_point"] = float64(b.t.count("tsdb.append_calls")) / float64(pts)
	}
	stored := 0
	for _, v := range b.pos {
		stored += v
	}
	for _, v := range b.fleetPos {
		stored += v
	}
	bytes, err := dirBytes(filepath.Join(b.n.dir, "wal"))
	if err != nil {
		return err
	}
	L["tsdb.bytes_per_point"] = float64(bytes) / float64(stored)
	L["registry.publish_ms"] = p("registry.publish_ms", 0.50)
	for k, t := range b.tiers {
		late := append([]float64(nil), t.Late...)
		sort.Float64s(late)
		v, err := percentile(late, 0.99)
		if err != nil {
			return err
		}
		L["gen.late_ms.p99."+tierNames[k]] = v
		L["gen.sent"] += float64(t.Sent)
		L["gen.failed"] += float64(t.Failed)
	}
	if b.tiers[2].backlogged() {
		L["gen.high_backlogged"] = 1
	}
	L["gen.sent"] += float64(twin.Sent)
	L["gen.failed"] += float64(twin.Failed)
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}
