package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"opprentice/internal/engine"
	"opprentice/internal/kpigen"
	"opprentice/internal/service"
	"opprentice/internal/timeseries"
)

// Sizes shared by every workload. The trained cohort follows the paper's
// weekly-retrain setting: hourly points, 13 labeled weeks before the first
// training, engine defaults (60 trees, EWMA cThld).
const (
	trainedSeries   = 8
	historyWeeks    = 13
	ppw             = 7 * 24 // hourly points per week
	fleetHistory    = 24     // a day of points per fleet series at creation
	setups          = 9      // set-ups per run; setup_s is their median
	restarts        = 11     // close → restore cycles per run; restore_s is their median
	ingestChunks    = 3      // bulk ingest streams per run; ingest_pts_per_s is their median
	minTierRequests = 1100   // a p99 needs ≥1000 samples to have 10 beyond it
	warmupRequests  = 200    // untimed requests before the first tier
)

// workload is one traffic mix. Every workload runs the same phases, so every
// end-to-end metric is measured on each; the mix decides the sizes of the
// phases and which cohort takes the per-point traffic.
type workload struct {
	name string
	// fleet is the number of untrained durable series created beside the
	// trained cohort; when non-zero they, not the trained cohort, take the
	// per-point traffic.
	fleet int
	// ingestWeeks is how many weeks per trained series the bulk ingest
	// stream pushes.
	ingestWeeks int
	// rounds is the number of weekly label-and-retrain rounds.
	rounds int
	// batch is the StepBatch size of the traced core.step_us replay: the
	// batch the workload's dominant path scores with.
	batch int
}

// tierRates are the offered per-point rates (points/s) of the low, mid and
// high tiers. Low and mid sit well below the knee of the 2-vCPU machine the
// benchmark was sized on (3-6k points/s); high is past it on purpose.
var (
	tierRates = [3]float64{300, 800, 10000}
	tierNames = [3]string{"low", "mid", "high"}
)

var workloads = []workload{
	// The point → verdict path at the shared minimum of every other phase:
	// detectors, forest inference and the WAL wait cost most.
	{name: "scrape", ingestWeeks: 15, rounds: 1, batch: 1},
	// About a year of week-sized batches per series through /v1/ingest:
	// batched scoring, the stream decoder and group commit, and a restore
	// that replays the longer log.
	{name: "backfill", ingestWeeks: 51, rounds: 1, batch: ppw},
	// Four weekly label-and-retrain rounds: extraction and its cache, tree
	// growth, cThld, model publication and warm restore.
	{name: "lifecycle", ingestWeeks: 15, rounds: 4, batch: 1},
	// 1000 untrained durable series take the per-point traffic: the
	// per-series fixed cost of the engine and tsdb. Not in BENCHMARK.json
	// (see README.md).
	{name: "fleet", fleet: 1000, ingestWeeks: 15, rounds: 1, batch: 1},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// bench is the state of one run.
type bench struct {
	wl      workload
	seed    int64
	seconds float64
	t       *tracer // nil in the untraced run
	root    string
	acct    accounting
	ctx     context.Context
	log     io.Writer // progress notes

	data     []*kpigen.Dataset // trained cohort inputs
	names    []string          // trained cohort
	fleet    []string          // fleet cohort
	pos      []int             // trained: acknowledged points per series
	fleetPos []int             // fleet: acknowledged points per series
	trainAt  [][]int           // trained: series length at each training round
	sampled  int               // trained series whose verdicts are checked

	n *node
	// replayRoot is the span the traced layer replays nest under.
	replayRoot int

	// requests numbers the per-point requests; it is the trace's request id.
	requests int
	// verdicts are the sampled series' per-point verdicts by index.
	verdicts map[int]engine.Verdict
	// ingestFrom is the sampled series' length when the bulk ingest began.
	ingestFrom int

	heapBase   uint64
	goBase     int
	heapPerKiB float64
	goPer      float64

	setupS, setupCPU []float64 // s per set-up
	// Wall and process CPU times of the timed lifecycle steps.
	coldMs, coldCPU       []float64 // ms per series
	retrainMs, retrainCPU []float64 // ms per series per round
	restoreS, restoreCPU  []float64 // s per restart
	tiers                 []tier
	ingestPPS             float64
	ingestCPU             float64 // process CPU µs per ingested point
	twinPPS               float64

	e2e   map[string]float64
	layer map[string]float64
}

// servingNames is the cohort that takes the per-point traffic.
func (b *bench) servingNames() []string {
	if b.wl.fleet > 0 {
		return b.fleet
	}
	return b.names
}

// next returns the next input value of serving-cohort series s.
func (b *bench) next(s int) float64 {
	if b.wl.fleet > 0 {
		src := b.data[s%trainedSeries].Series.Values
		return src[(s/trainedSeries+b.fleetPos[s])%len(src)]
	}
	return b.data[s].Series.Values[b.pos[s]]
}

// ack advances serving-cohort series s by one acknowledged point.
func (b *bench) ack(s int) {
	if b.wl.fleet > 0 {
		b.fleetPos[s]++
	} else {
		b.pos[s]++
	}
}

// genInputs generates every input from the seed: one kpigen PV dataset per
// trained series, long enough for history, the retrain weeks, the tiers and
// the ingest stream. Fleet series reuse those values.
func (b *bench) genInputs() {
	p := kpigen.PV(kpigen.Small)
	p.Interval = time.Hour
	// Points per trained series the per-point phases may take: the tiers,
	// the traced run's twin tier, and the first verdicts after restore. The
	// traced run's in-process bulk twin doubles the ingest weeks.
	tierPts := (warmupRequests+4*b.windowRequests())/trainedSeries + 2
	p.Weeks = historyWeeks + b.wl.rounds + 2*b.wl.ingestWeeks + tierPts/ppw + 2
	for i := 0; i < trainedSeries; i++ {
		b.data = append(b.data, kpigen.Generate(p, b.seed*1000+int64(i)))
		b.names = append(b.names, fmt.Sprintf("kpi-%d", i))
	}
	for j := 0; j < b.wl.fleet; j++ {
		b.fleet = append(b.fleet, fmt.Sprintf("fleet-%04d", j))
	}
	b.sampled = int(b.seed % trainedSeries)
	if b.sampled < 0 {
		b.sampled += trainedSeries
	}
}

// labelWindows returns series i's ground-truth anomaly windows clipped to
// [lo, hi).
func (b *bench) labelWindows(i, lo, hi int) []service.LabelWindow {
	var out []service.LabelWindow
	for _, w := range timeseries.Labels(b.data[i].Labels[lo:hi]).Windows() {
		out = append(out, service.LabelWindow{Start: lo + w.Start, End: lo + w.End, Anomalous: true})
	}
	return out
}

// setup builds one node in dir: the trained cohort with its labeled
// history, and the fleet cohort with a day of points each. With baseline,
// it records the heap and goroutine counts just before the serving cohort
// is created, and returns the wall and CPU time that took so they can be
// left out of the set-up's.
func (b *bench) setup(dir string, baseline bool) (n *node, gcWall, gcCPU time.Duration, err error) {
	base := func() {
		if !baseline {
			return
		}
		t0, cpu0 := time.Now(), processCPU()
		b.heapBase, b.goBase = liveHeap(), runtime.NumGoroutine()
		gcWall, gcCPU = time.Since(t0), processCPU()-cpu0
	}
	n, err = openNode(dir, b.t)
	if err != nil {
		return nil, 0, 0, err
	}
	c := n.client
	if b.wl.fleet == 0 {
		base()
	}
	var hist []streamBatch
	for i, name := range b.names {
		err := c.Create(b.ctx, name, service.CreateRequest{IntervalSeconds: 3600, Start: b.data[i].Series.Start})
		b.acct.op(err)
		if err != nil {
			return n, 0, 0, fmt.Errorf("create %s: %w", name, err)
		}
		hist = append(hist, streamBatch{name, b.data[i].Series.Values[:historyWeeks*ppw]})
	}
	if err := b.ingest(c, hist); err != nil {
		return n, 0, 0, fmt.Errorf("history: %w", err)
	}
	for i, name := range b.names {
		err := c.Label(b.ctx, name, b.labelWindows(i, 0, historyWeeks*ppw))
		b.acct.op(err)
		if err != nil {
			return n, 0, 0, fmt.Errorf("label %s: %w", name, err)
		}
	}
	if b.wl.fleet > 0 {
		base()
		err := parallel(len(b.fleet), func(j int) error {
			err := c.Create(b.ctx, b.fleet[j], service.CreateRequest{IntervalSeconds: 3600, Start: b.data[0].Series.Start})
			b.acct.op(err)
			return err
		})
		if err != nil {
			return n, 0, 0, fmt.Errorf("create fleet: %w", err)
		}
		var days []streamBatch
		for j, name := range b.fleet {
			src := b.data[j%trainedSeries].Series.Values
			off := j / trainedSeries
			days = append(days, streamBatch{name, src[off : off+fleetHistory]})
		}
		if err := b.ingest(c, days); err != nil {
			return n, 0, 0, fmt.Errorf("fleet history: %w", err)
		}
	}
	return n, gcWall, gcCPU, nil
}

// ingest streams batches and counts them as one operation each.
func (b *bench) ingest(c *service.Client, batches []streamBatch) error {
	err := stream(b.ctx, c, batches)
	for range batches {
		b.acct.op(err)
	}
	return err
}

// parallel runs fn(0..n-1) on the generator's client goroutines and returns
// the first error.
func parallel(n int, fn func(i int) error) error {
	errs := make(chan error, clients)
	for w := 0; w < clients; w++ {
		go func(w int) {
			var first error
			for i := w; i < n; i += clients {
				if err := fn(i); err != nil && first == nil {
					first = err
				}
			}
			errs <- first
		}(w)
	}
	var first error
	for w := 0; w < clients; w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// liveHeap returns the live heap once it has settled: full collections
// every 25 ms for at least 400 ms, then until one frees less than a MiB.
// A node just closed stays reachable for a while after its goroutines have
// exited (through the runtime's list of sync.Pools, which its HTTP server
// uses, and through finalizers of its files and sockets). Usually that is
// over within this window; on a slow host it sometimes is not, and the
// closed node then counts in the baseline (see README.md).
func liveHeap() uint64 {
	var ms runtime.MemStats
	last := uint64(math.MaxUint64)
	for k := 0; k < 80; k++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if k >= 16 && ms.HeapAlloc+1<<20 > last {
			break
		}
		last = ms.HeapAlloc
		time.Sleep(25 * time.Millisecond)
	}
	return ms.HeapAlloc
}

// runSetups sets up `setups` times, each in a fresh directory, keeps the
// last node and records each set-up's process CPU time and wall time.
func (b *bench) runSetups() error {
	for k := 0; k < setups; k++ {
		b.resetCohorts()
		dir := filepath.Join(b.root, fmt.Sprintf("node-%d", k))
		t0, cpu0 := time.Now(), processCPU()
		n, gcWall, gcCPU, err := b.setup(dir, k == setups-1)
		wall, cpu := time.Since(t0)-gcWall, processCPU()-cpu0-gcCPU
		if err != nil {
			if n != nil {
				n.close()
			}
			return err
		}
		b.setupCPU = append(b.setupCPU, cpu.Seconds())
		b.setupS = append(b.setupS, wall.Seconds())
		if k < setups-1 {
			if err := n.close(); err != nil {
				return err
			}
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
			continue
		}
		b.n = n
	}
	return nil
}

// resetCohorts puts the per-series positions back to a fresh set-up's.
func (b *bench) resetCohorts() {
	b.pos = make([]int, trainedSeries)
	b.trainAt = make([][]int, trainedSeries)
	for i := range b.pos {
		b.pos[i] = historyWeeks * ppw
	}
	b.fleetPos = make([]int, len(b.fleet))
	for j := range b.fleetPos {
		b.fleetPos[j] = fleetHistory
	}
}

// measureHeap records the serving cohort's live heap and goroutines per
// series against the pre-create baseline.
func (b *bench) measureHeap() {
	k := float64(len(b.servingNames()))
	b.heapPerKiB = (float64(liveHeap()) - float64(b.heapBase)) / k / 1024
	b.goPer = float64(runtime.NumGoroutine()-b.goBase) / k
}

// train trains every trained series in turn (one at a time, so each time is
// one series' cost on the whole machine), waits for each new model to be
// published, and returns each call's client-observed wall time and the
// process CPU time it took, both in ms.
func (b *bench) train() (wallMs, cpuMs []float64, err error) {
	for i, name := range b.names {
		before := b.n.pubs.count(name)
		id := b.t.begin("service.train", 0, 0)
		t0, cpu0 := time.Now(), processCPU()
		_, err := b.n.client.Train(b.ctx, name)
		wallMs = append(wallMs, time.Since(t0).Seconds()*1e3)
		cpuMs = append(cpuMs, (processCPU()-cpu0).Seconds()*1e3)
		b.t.end(id)
		b.acct.op(err)
		if err != nil {
			return nil, nil, fmt.Errorf("train %s: %w", name, err)
		}
		b.trainAt[i] = append(b.trainAt[i], b.pos[i])
		err = b.n.pubs.wait(name, before+1, time.Minute)
		b.acct.op(err)
		if err != nil {
			return nil, nil, err
		}
	}
	return wallMs, cpuMs, nil
}

// weeklyRound ingests the next week of every trained series, labels its
// anomaly windows, and retrains each series.
func (b *bench) weeklyRound() error {
	var week []streamBatch
	for i, name := range b.names {
		week = append(week, streamBatch{name, b.data[i].Series.Values[b.pos[i] : b.pos[i]+ppw]})
	}
	if err := b.ingest(b.n.client, week); err != nil {
		return fmt.Errorf("weekly ingest: %w", err)
	}
	for i, name := range b.names {
		lo := b.pos[i]
		b.pos[i] += ppw
		err := b.n.client.Label(b.ctx, name, b.labelWindows(i, lo, b.pos[i]))
		b.acct.op(err)
		if err != nil {
			return fmt.Errorf("label %s: %w", name, err)
		}
	}
	wall, cpu, err := b.train()
	b.retrainMs = append(b.retrainMs, wall...)
	b.retrainCPU = append(b.retrainCPU, cpu...)
	return err
}

// appendOne sends serving-cohort series s its next point over HTTP, records
// the sampled series' verdict, and reports a shed, error, unpersisted or
// verdict-less answer as a failure.
func (b *bench) appendOne(req, s int) error {
	names := b.servingNames()
	id := b.t.begin("service.append", 0, int64(req))
	resp, err := b.n.client.Append(b.ctx, names[s], []service.Point{{Value: b.next(s)}})
	b.t.end(id)
	if err == nil {
		err = b.acceptAppend(s, resp.Appended, resp.Persisted == nil || *resp.Persisted, resp.Degraded != nil && *resp.Degraded, resp.Verdicts)
	}
	if isShed(err) {
		b.t.add("engine.sheds", 1)
	}
	b.acct.op(err)
	return err
}

// appendDirect is appendOne calling engine.Append in-process: the traced
// run's twin of the HTTP path, which prices the service layer.
func (b *bench) appendDirect(req, s int) error {
	names := b.servingNames()
	id := b.t.begin("engine.append", 0, int64(req))
	res, err := b.n.eng.Append(b.ctx, names[s], []engine.Point{{Value: b.next(s)}}, nil)
	b.t.end(id)
	if err == nil {
		err = b.acceptAppend(s, res.Appended, res.Persisted, res.Degraded, res.Verdicts)
	}
	b.acct.op(err)
	return err
}

func (b *bench) acceptAppend(s, appended int, persisted, degraded bool, vs []engine.Verdict) error {
	if appended != 1 || !persisted || degraded {
		return fmt.Errorf("append to series %d: appended=%d persisted=%v degraded=%v", s, appended, persisted, degraded)
	}
	trained := b.wl.fleet == 0
	if trained != (len(vs) == 1) {
		return fmt.Errorf("append to series %d: %d verdicts", s, len(vs))
	}
	if trained && s == b.sampled {
		b.verdicts[vs[0].Index] = vs[0]
	}
	b.ack(s)
	return nil
}

// runTiers drives the serving cohort through a warm-up and the three
// open-loop tiers, low to high, each with the same request count, sized so
// the phase lasts about --seconds.
func (b *bench) runTiers(send func(req, s int) error) []tier {
	k := len(b.servingNames())
	run := func(rate float64, n int) window {
		base := b.requests
		b.requests += n
		return openLoop(b.ctx, rate, n, func(j int) error { return send(base+j, (base+j)%k) })
	}
	run(tierRates[0], warmupRequests)
	n := b.windowRequests()
	var tiers []tier
	for i, r := range tierRates {
		tiers = append(tiers, tier{Name: tierNames[i], OfferedPPS: r, window: run(r, n)})
	}
	return tiers
}

// windowRequests is the request count of each tier: enough for a p99 with
// minTail samples beyond it, and more when --seconds allows.
func (b *bench) windowRequests() int {
	perReq := 0.0
	for _, r := range tierRates {
		perReq += 1 / r
	}
	return max(minTierRequests, int(b.seconds/perReq))
}

// twinTier runs the mid rate once more through engine.Append in-process.
func (b *bench) twinTier() window {
	k := len(b.servingNames())
	base := b.requests
	b.requests += b.windowRequests()
	return openLoop(b.ctx, tierRates[1], b.windowRequests(), func(j int) error { return b.appendDirect(base+j, (base+j)%k) })
}

// bulk streams ingestWeeks weeks of every trained series in week-sized
// batches, round-robin, through /v1/ingest, as ingestChunks streams of
// equal size. It returns the median of their points/s, and the process CPU
// time per point over all of them in microseconds (a total, so that the
// collections it triggers are averaged in, not sampled).
func (b *bench) bulk() (pps, cpuUs float64, err error) {
	b.ingestFrom = b.pos[b.sampled]
	weeks := b.wl.ingestWeeks / ingestChunks
	pts := float64(weeks * ppw * trainedSeries)
	var rates []float64
	var cpu time.Duration
	for c := 0; c < ingestChunks; c++ {
		var batches []streamBatch
		for w := 0; w < weeks; w++ {
			for i, name := range b.names {
				lo := b.pos[i] + w*ppw
				batches = append(batches, streamBatch{name, b.data[i].Series.Values[lo : lo+ppw]})
			}
		}
		id := b.t.begin("service.ingest", 0, 0)
		t0, cpu0 := time.Now(), processCPU()
		err := b.ingest(b.n.client, batches)
		took := time.Since(t0)
		cpu += processCPU() - cpu0
		b.t.end(id)
		if err != nil {
			return 0, 0, err
		}
		for i := range b.pos {
			b.pos[i] += weeks * ppw
		}
		rates = append(rates, pts/took.Seconds())
	}
	return median(rates), cpu.Seconds() / (ingestChunks * pts) * 1e6, nil
}

// bulkDirect is bulk through engine.AppendBulk in-process, in the same
// batches, continuing each series: the traced run's twin of the stream.
func (b *bench) bulkDirect() (float64, error) {
	var batches []engine.SeriesBatch
	pts := 0
	for w := 0; w < b.wl.ingestWeeks; w++ {
		for i, name := range b.names {
			lo := b.pos[i] + w*ppw
			p := make([]engine.Point, ppw)
			for k := range p {
				p[k].Value = b.data[i].Series.Values[lo+k]
			}
			batches = append(batches, engine.SeriesBatch{Name: name, Points: p})
			pts += ppw
		}
	}
	id := b.t.begin("engine.append_bulk", 0, 0)
	t0 := time.Now()
	var vbuf []engine.Verdict
	var err error
	for _, batch := range batches {
		var sum engine.BulkSummary
		sum, vbuf, err = b.n.eng.AppendBulk(b.ctx, []engine.SeriesBatch{batch}, vbuf[:0])
		b.acct.op(err)
		if err == nil && sum.Appended != len(batch.Points) {
			err = fmt.Errorf("bulk append to %s: %d of %d points", batch.Name, sum.Appended, len(batch.Points))
		}
		if err != nil {
			break
		}
	}
	took := time.Since(t0)
	b.t.end(id)
	if err != nil {
		return 0, err
	}
	for i := range b.pos {
		b.pos[i] += b.wl.ingestWeeks * ppw
	}
	return float64(pts) / took.Seconds(), nil
}
