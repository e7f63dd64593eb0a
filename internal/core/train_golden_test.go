package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math"
	"testing"
	"time"

	"opprentice/internal/kpigen"
	"opprentice/internal/ml/forest"
	"opprentice/internal/stats"
)

// goldenTrain pins, bit for bit, what one cold train produces at the size the
// engine trains a series with by default: 13 weeks of hourly PV data, the
// full detector registry, 60 trees, Seed 1. The hashes were recorded from the
// straightforward training kernels (a gini evaluation at every bin boundary,
// one tree per raw bootstrap, a fresh sort per forest); any optimisation of
// tree growth or binning must leave every one unchanged.
var goldenTrain = []struct {
	seed    int64
	forest  string // sha256 of forest.Train(...).Save
	cv      uint64 // math.Float64bits of CrossValidateCThld
	monitor string // sha256 of NewMonitor(...).SaveModel
}{
	{1, "f2d34e2c5f8e17fa58cfea39c358c587f0a51c731539f08ab4611e08e6933e10", 0x3fdbc6a7ef9db22d, "d19ddc1236b27652d8da5770b1cda2ab2e99f676d1f01b94db7e095286e8cc13"},
	{2, "e2a0fed4267f4fb1d65342c897011327ca268e5041fc572506a4939c45818f00", 0x3fdbc6a7ef9db22d, "f888a39763d38ea30292b546f7eee42e1c6826f02173409a629b4227fcaef44b"},
	{3, "d6b389d55b7c81bd375d3301c31cccaf5a0392a371836c55743a7805e001f74d", 0x3fd34395810624dd, "65469f536a2db2233b04d6f038347ec7915fc486100ba34e164bd7c95eb08f10"},
}

// goldenEVTTyped pins the EVT initial fit (the held-out half forests) and the
// one-vs-rest type head on the first golden seed.
var goldenEVTTyped = struct {
	cthld uint64 // math.Float64bits of the EVT monitor's first threshold
	types string // sha256 of SaveTypeModel
}{0x3fd4950a27e528da, "61284e7bfd28692ae9062033a058bae63b9934e085d83f5cac9f59776e3cd33b"}

// goldenKPI generates the golden fixture for seed.
func goldenKPI(seed int64) *kpigen.Dataset {
	p := kpigen.PV(kpigen.Small)
	p.Interval = time.Hour
	p.Weeks = 13
	return kpigen.Generate(p, seed)
}

// goldenDefaults are the engine's default training settings.
var goldenDefaults = MonitorConfig{
	Preference: stats.Preference{Recall: 0.66, Precision: 0.66},
	Forest:     forest.Config{Trees: 60, Seed: 1},
}

func sha(t *testing.T, save func(w io.Writer) error) string {
	t.Helper()
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

func TestTrainingGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("trains paper-size forests")
	}
	for _, g := range goldenTrain {
		d := goldenKPI(g.seed)
		feats, err := Extract(d.Series, benchRegistry(t), ExtractConfig{})
		if err != nil {
			t.Fatal(err)
		}
		cols := feats.ImputedFull()
		labels := []bool(d.Labels)
		if got := sha(t, forest.Train(cols, labels, goldenDefaults.Forest).Save); got != g.forest {
			t.Errorf("seed %d: forest sha256 %s, want %s", g.seed, got, g.forest)
		}
		cv := CrossValidateCThld(cols, labels, 5, 1000, goldenDefaults.Forest, goldenDefaults.Preference)
		if got := math.Float64bits(cv); got != g.cv {
			t.Errorf("seed %d: CV cThld %v (bits %#x), want bits %#x", g.seed, cv, got, g.cv)
		}
		mon, err := NewMonitor(d.Series, d.Labels.Clone(), benchRegistry(t), goldenDefaults)
		if err != nil {
			t.Fatal(err)
		}
		if got := sha(t, mon.SaveModel); got != g.monitor {
			t.Errorf("seed %d: monitor sha256 %s, want %s", g.seed, got, g.monitor)
		}
	}

	d := goldenKPI(goldenTrain[0].seed)
	cfg := goldenDefaults
	cfg.Predictor = PredictEVT
	cfg.SkipInitialCV = true
	cfg.TypeLabels = kpigen.TypedLabels(d)
	mon, err := NewMonitor(d.Series, d.Labels.Clone(), benchRegistry(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := math.Float64bits(mon.CThld()); got != goldenEVTTyped.cthld {
		t.Errorf("EVT cThld %v (bits %#x), want bits %#x", mon.CThld(), got, goldenEVTTyped.cthld)
	}
	if !mon.HasTypeModel() {
		t.Fatal("typed labels trained no type head")
	}
	if got := sha(t, mon.SaveTypeModel); got != goldenEVTTyped.types {
		t.Errorf("type head sha256 %s, want %s", got, goldenEVTTyped.types)
	}
}

// goldenRetrain pins one weekly retrain on the golden fixture: a monitor
// trained on the first 13 weeks of seed 1, then RetrainSnapshotTyped onto
// the 14th, once with a nil cache (cold extraction) and once through the
// FeatureCache the cold train warmed. The EVT row trains with typed labels,
// so it also pins the retrained type head. Recorded before the retrain
// entry points were folded into one fit; that refactor must leave every
// row unchanged.
var goldenRetrain = []struct {
	kind    PredictorKind
	cached  bool
	monitor string // sha256 of the retrained monitor's SaveModel
	cthld   uint64 // math.Float64bits of its CThld
	types   string // sha256 of its SaveTypeModel ("" when untyped)
}{
	{PredictEWMA, false, "66e6c263cf1548e698da4dde89a8319eb9e4cffa5f489b5b8289e844248bb9e5", 0x3fdcd013a92a3056, ""},
	{PredictEWMA, true, "66e6c263cf1548e698da4dde89a8319eb9e4cffa5f489b5b8289e844248bb9e5", 0x3fdcd013a92a3056, ""},
	{PredictEVT, false, "9e781b781777b5370916aee180572fa0453ef481e961313e7c42d0330b2c3cbf", 0x3fe0535162e28f3d, "e7ad4c419de38bfb44550b9a219c59d0a2c3ea8ca3e272e4f8cd97adbaa34404"},
	{PredictEVT, true, "9e781b781777b5370916aee180572fa0453ef481e961313e7c42d0330b2c3cbf", 0x3fe0535162e28f3d, "e7ad4c419de38bfb44550b9a219c59d0a2c3ea8ca3e272e4f8cd97adbaa34404"},
}

func TestRetrainGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("trains paper-size forests")
	}
	p := kpigen.PV(kpigen.Small)
	p.Interval = time.Hour
	p.Weeks = 14
	d := kpigen.Generate(p, goldenTrain[0].seed)
	types := kpigen.TypedLabels(d)
	head := d.Series.Len() - 168
	for _, g := range goldenRetrain {
		cfg := goldenDefaults
		cfg.Predictor = g.kind
		cfg.Cache = NewFeatureCache(nil)
		if g.kind == PredictEVT {
			cfg.SkipInitialCV = true
			cfg.TypeLabels = types[:head]
		}
		mon, err := NewMonitor(d.Series.Slice(0, head), d.Labels[:head].Clone(), benchRegistry(t), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var cache *FeatureCache
		if g.cached {
			cache = cfg.Cache
		}
		var retypes []uint8
		if g.kind == PredictEVT {
			retypes = types
		}
		next, err := mon.RetrainSnapshotTyped(d.Series, d.Labels.Clone(), retypes, benchRegistry(t), cache)
		if err != nil {
			t.Fatal(err)
		}
		if got := sha(t, next.SaveModel); got != g.monitor {
			t.Errorf("%v cached=%v: monitor sha256 %s, want %s", g.kind, g.cached, got, g.monitor)
		}
		if got := math.Float64bits(next.CThld()); got != g.cthld {
			t.Errorf("%v cached=%v: cThld %v (bits %#x), want bits %#x", g.kind, g.cached, next.CThld(), got, g.cthld)
		}
		got := ""
		if next.HasTypeModel() {
			got = sha(t, next.SaveTypeModel)
		}
		if got != g.types {
			t.Errorf("%v cached=%v: type head sha256 %q, want %q", g.kind, g.cached, got, g.types)
		}
	}
}
