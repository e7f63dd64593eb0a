package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"opprentice/internal/engine"
	"opprentice/internal/service"
)

type metricDef struct {
	name, unit string
}

// endToEnd are gated by BENCHMARK.json, which lists the same names with
// their bounds; the untraced run prints them. Every timed step, set-up
// included, is gated on the process CPU time it costs: on a shared
// two-vCPU machine the host stalls threads and the disk's fsyncs from
// minute to minute, which moves wall times between runs of the same code
// by more than any bound can allow, while the work a step does moves only
// with the code. The wall times are in ungated.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"append_cpu_us_per_pt", "us"},
	{"ingest_cpu_us_per_pt", "us"},
	{"cold_train_cpu_s", "s"},
	{"retrain_cpu_s", "s"},
	{"restore_cpu_s", "s"},
	{"heap_per_series_kib", "KiB"},
	{"success_frac", "ratio"},
}

// ungated are the wall-clock figures a user feels, measured on every run
// and reported by the traced run. Over ten seeds the serving p50s spread
// 0.25-1.2, ingest throughput 0.25-0.27, and training and restore times up
// to 0.28-0.57 when the host slowed part of a set; a p99 turns on how many
// 10-50 ms stalls land in its window, and the sustained rate on whether a
// p99 crosses the 20 ms SLO.
var ungated = []metricDef{
	{"setup_wall_s", "s"},
	{"append_p50_ms.low", "ms"},
	{"append_p50_ms.mid", "ms"},
	{"append_p99_ms.low", "ms"},
	{"append_p99_ms.mid", "ms"},
	{"sustained_pts_per_s", "pts/s"},
	{"ingest_pts_per_s", "pts/s"},
	{"cold_train_s", "s"},
	{"retrain_s", "s"},
	{"restore_s", "s"},
}

// perLayer are the traced run's metrics: the layer breakdown, the load
// generator's own health, and every end-to-end and ungated figure as
// measured with tracing on (their difference from the untraced run is the
// tracing overhead).
var perLayer = append([]metricDef{
	{"service.self_us", "us"},
	{"service.ingest_self_us", "us"},
	{"engine.append_us.p50", "us"},
	{"engine.append_us.p99", "us"},
	{"engine.self_us", "us"},
	{"engine.goroutines_per_series", "count"},
	{"engine.shed_frac", "ratio"},
	{"engine.degraded_entered", "count"},
	{"engine.wal_lost_points", "count"},
	{"engine.train_other_ms", "ms"},
	{"engine.restore_warm_ratio", "ratio"},
	{"engine.restore_other_ms", "ms"},
	{"core.step_us", "us"},
	{"detectors.step_us", "us"},
	{"forest.prob_us", "us"},
	{"core.extract_ms", "ms"},
	{"core.extract_incremental_ms", "ms"},
	{"core.extract_cache_hit_ratio", "ratio"},
	{"core.extract_cache_kib_per_series", "KiB"},
	{"tree.binner_ms", "ms"},
	{"tree.grow_ms", "ms"},
	{"forest.train_ms", "ms"},
	{"core.cv_cthld_ms", "ms"},
	{"tsdb.append_wait_us.p50", "us"},
	{"tsdb.append_wait_us.p99", "us"},
	{"tsdb.appends_per_point", "ratio"},
	{"tsdb.bytes_per_point", "B"},
	{"tsdb.load_ms", "ms"},
	{"registry.publish_ms", "ms"},
	{"registry.loadset_ms", "ms"},
	{"core.load_monitor_ms", "ms"},
	{"gen.late_ms.p99.low", "ms"},
	{"gen.late_ms.p99.mid", "ms"},
	{"gen.late_ms.p99.high", "ms"},
	{"gen.high_backlogged", "count"},
	{"gen.sent", "count"},
	{"gen.failed", "count"},
}, traced(endToEnd, ungated)...)

// traced names the traced run's copies of the lists' metrics.
func traced(lists ...[]metricDef) []metricDef {
	var out []metricDef
	for _, ms := range lists {
		for _, m := range ms {
			out = append(out, metricDef{"traced." + m.name, m.unit})
		}
	}
	return out
}

// run executes the workload's phases in order; every workload runs all of
// them, at its own sizes.
func (b *bench) run() error {
	b.verdicts = map[int]engine.Verdict{}
	b.e2e, b.layer = map[string]float64{}, map[string]float64{}
	mark := time.Now()
	phase := func(name string) {
		fmt.Fprintf(b.log, "phase %-8s %6.2fs\n", name, time.Since(mark).Seconds())
		mark = time.Now()
	}
	b.genInputs()
	if err := b.runSetups(); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	defer func() {
		if b.n != nil {
			b.n.close()
		}
	}()
	if b.wl.fleet > 0 {
		b.measureHeap()
	}
	// Each timed phase starts from a collected heap, so garbage an earlier
	// phase left behind does not put a collection at a random point of it.
	var err error
	runtime.GC()
	phase("setup")
	if b.coldMs, b.coldCPU, err = b.train(); err != nil {
		return fmt.Errorf("cold train: %w", err)
	}
	phase("train")
	if b.wl.fleet == 0 {
		b.measureHeap()
	}
	for r := 0; r < b.wl.rounds; r++ {
		runtime.GC()
		if err := b.weeklyRound(); err != nil {
			return fmt.Errorf("weekly round %d: %w", r+1, err)
		}
	}
	phase("rounds")
	runtime.GC()
	b.tiers = b.runTiers(b.appendOne)
	var twin window
	if b.t != nil {
		twin = b.twinTier()
	}
	phase("tiers")
	runtime.GC()
	if b.ingestPPS, b.ingestCPU, err = b.bulk(); err != nil {
		return fmt.Errorf("bulk ingest: %w", err)
	}
	if b.t != nil {
		if b.twinPPS, err = b.bulkDirect(); err != nil {
			return fmt.Errorf("bulk ingest twin: %w", err)
		}
	}
	phase("ingest")
	ref, err := b.checkVerdicts()
	if err != nil {
		return err
	}
	phase("check")
	counters := b.n.eng.Counters()
	if err := b.restartCycles(); err != nil {
		return err
	}
	phase("restarts")
	if err := b.endToEnd(); err != nil {
		return err
	}
	if b.t != nil {
		return b.layers(ref, twin, counters)
	}
	return nil
}

// restartCycles closes the node and restores it from disk `restarts`
// times, checking the store after the first close and every restore, then
// asks each trained series for a first verdict.
func (b *bench) restartCycles() error {
	dir := b.n.dir
	for k := 0; k < restarts; k++ {
		before, err := b.statuses()
		if err != nil {
			return err
		}
		err = b.n.close()
		b.n = nil
		if err != nil {
			return fmt.Errorf("close: %w", err)
		}
		if k == 0 {
			if err := b.checkStored(filepath.Join(dir, "wal")); err != nil {
				return err
			}
		}
		runtime.GC() // the closed node's memory goes before the next one opens
		t0, cpu0 := time.Now(), processCPU()
		if b.n, err = openNode(dir, b.t); err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		restored, err := b.n.eng.Restore(b.ctx)
		took, cpu := time.Since(t0), processCPU()-cpu0
		b.acct.op(err)
		if err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		b.restoreS = append(b.restoreS, took.Seconds())
		b.restoreCPU = append(b.restoreCPU, cpu.Seconds())
		if err := b.checkRestored(restored, before); err != nil {
			return err
		}
	}
	for i, name := range b.names {
		resp, err := b.n.client.Append(b.ctx, name, []service.Point{{Value: b.data[i].Series.Values[b.pos[i]]}})
		if err == nil && (len(resp.Verdicts) != 1 || resp.Degraded != nil || resp.Persisted != nil) {
			err = fmt.Errorf("first verdict of %s after restore: %+v", name, resp)
		}
		b.acct.op(err)
		if err != nil {
			return err
		}
		b.pos[i]++
	}
	return nil
}

// endToEnd reduces the run to the end-to-end metrics. The traced run
// reports them under "traced." beside its layers.
func (b *bench) endToEnd() error {
	m := b.e2e
	m["setup_s"] = median(b.setupCPU)
	m["setup_wall_s"] = median(b.setupS)
	for _, t := range b.tiers[:2] {
		p50, err := t.percentile(0.50)
		if err != nil {
			return err
		}
		p99, err := t.percentile(0.99)
		if err != nil {
			return err
		}
		m["append_p50_ms."+t.Name] = p50
		m["append_p99_ms."+t.Name] = p99
	}
	m["sustained_pts_per_s"] = sustainedPPS(b.tiers)
	m["ingest_pts_per_s"] = b.ingestPPS
	m["append_cpu_us_per_pt"] = cpuPerPoint(b.tiers[:2])
	m["ingest_cpu_us_per_pt"] = b.ingestCPU
	m["cold_train_s"] = median(b.coldMs) / 1e3
	m["retrain_s"] = median(b.retrainMs) / 1e3
	m["restore_s"] = median(b.restoreS)
	m["cold_train_cpu_s"] = median(b.coldCPU) / 1e3
	m["retrain_cpu_s"] = median(b.retrainCPU) / 1e3
	m["restore_cpu_s"] = median(b.restoreCPU)
	m["heap_per_series_kib"] = b.heapPerKiB
	m["success_frac"] = b.acct.successFrac()
	for _, t := range b.tiers {
		p50, _ := t.percentile(0.50)
		p99, _ := t.percentile(0.99)
		fmt.Fprintf(b.log, "tier %-4s offered %6.0f/s achieved %8.1f/s p50 %6.2f p99 %7.2f ms failed %d backlogged %v\n",
			t.Name, t.OfferedPPS, t.achievedPPS(), p50, p99, t.Failed, t.backlogged())
	}
	if b.t != nil {
		for k, v := range m {
			b.layer["traced."+k] = v
		}
	}
	return nil
}
