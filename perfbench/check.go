package main

import (
	"fmt"
	"math"
	"time"

	"opprentice/internal/core"
	"opprentice/internal/detectors"
	"opprentice/internal/engine"
	"opprentice/internal/ml/forest"
	"opprentice/internal/stats"
	"opprentice/internal/timeseries"
	"opprentice/internal/tsdb"
)

// engineDefaults are the monitor settings the engine trains a series with
// when it is created with defaults.
var engineDefaults = core.MonitorConfig{
	Preference: stats.Preference{Recall: 0.66, Precision: 0.66},
	Forest:     forest.Config{Trees: 60, Seed: 1},
}

// alarmRing is the engine's default per-series alarm ring size.
const alarmRing = 1024

// prefix returns the first n values as an hourly series.
func prefix(start time.Time, values []float64, n int) *timeseries.Series {
	s := timeseries.New("ref", start, time.Hour)
	s.Values = append([]float64(nil), values[:n]...)
	return s
}

// reference rebuilds, with core alone and no cache, the monitor the engine
// should have served after each training round of one series, and steps it
// over the same points. trainAt holds the series length at each round; the
// labels known at a round are the ground truth before that length. It
// returns the monitor and one verdict per point from trainAt[0] on.
func reference(start time.Time, values []float64, labels timeseries.Labels, trainAt []int) (*core.Monitor, []core.Verdict, error) {
	dets, err := detectors.Registry(time.Hour)
	if err != nil {
		return nil, nil, err
	}
	at := trainAt[0]
	mon, err := core.NewMonitor(prefix(start, values, at), labels[:at].Clone(), dets, engineDefaults)
	if err != nil {
		return nil, nil, err
	}
	var out []core.Verdict
	for _, next := range trainAt[1:] {
		out = mon.StepBatch(values[at:next], out)
		if dets, err = detectors.Registry(time.Hour); err != nil {
			return nil, nil, err
		}
		if mon, err = mon.RetrainSnapshotTyped(prefix(start, values, next), labels[:next].Clone(), nil, dets, nil); err != nil {
			return nil, nil, err
		}
		at = next
	}
	return mon, mon.StepBatch(values[at:], out), nil
}

// checkVerdicts compares the sampled series' verdicts with the reference:
// every per-point verdict, and every alarm the bulk stream raised, must
// carry a bit-identical probability and the same flag. It returns the
// reference monitor, positioned at the series' head, for the traced
// replays.
func (b *bench) checkVerdicts() (*core.Monitor, error) {
	i := b.sampled
	d := b.data[i]
	mon, ref, err := reference(d.Series.Start, d.Series.Values[:b.pos[i]], d.Labels, b.trainAt[i])
	if err != nil {
		return nil, fmt.Errorf("reference monitor: %w", err)
	}
	base := b.trainAt[i][0]
	same := func(idx int, p float64, anomalous bool) bool {
		r := ref[idx-base]
		return math.Float64bits(r.Probability) == math.Float64bits(p) && r.Anomalous == anomalous
	}
	bad := 0
	for idx, v := range b.verdicts {
		if !same(idx, v.Probability, v.Anomalous) {
			bad++
		}
	}
	// A fleet workload sends the trained cohort no per-point traffic.
	ok := bad == 0 && (len(b.verdicts) > 0 || b.wl.fleet > 0)
	b.acct.check(ok)
	if !ok {
		return nil, fmt.Errorf("%s: %d of %d per-point verdicts differ from the reference", b.names[i], bad, len(b.verdicts))
	}

	// Bulk appends return no verdicts; their alarms are the anomalous ones.
	// Alarms lists those strictly after its time, so ask from the point
	// before the stream's first.
	from := d.Series.Start.Add(time.Duration(b.ingestFrom-1) * time.Hour)
	alarms, err := b.n.client.Alarms(b.ctx, b.names[i], from)
	b.acct.op(err)
	if err != nil {
		return nil, err
	}
	var want []int
	for idx := b.ingestFrom; idx < b.pos[i]; idx++ {
		if ref[idx-base].Anomalous {
			want = append(want, idx)
		}
	}
	if len(want) > alarmRing {
		want = want[len(want)-alarmRing:] // the ring keeps the newest
	}
	ok = len(alarms) == len(want)
	for k := 0; ok && k < len(alarms); k++ {
		idx := int(alarms[k].Time.Sub(d.Series.Start) / time.Hour)
		ok = idx == want[k] && same(idx, alarms[k].Probability, true)
	}
	b.acct.check(ok)
	if !ok {
		return nil, fmt.Errorf("%s: %d stream alarms, reference has %d, or they differ", b.names[i], len(alarms), len(want))
	}
	return mon, nil
}

// checkStored reopens the closed node's store and checks that every series
// holds exactly the points the engine acknowledged.
func (b *bench) checkStored(dir string) error {
	st, err := tsdb.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	want := map[string]int{}
	for i, name := range b.names {
		want[name] = b.pos[i]
	}
	for j, name := range b.fleet {
		want[name] = b.fleetPos[j]
	}
	bad := 0
	for name, n := range want {
		l, err := st.Load(name)
		if err != nil || len(l.Values) != n {
			bad++
		}
	}
	b.acct.check(bad == 0)
	if bad > 0 {
		return fmt.Errorf("%d of %d series do not hold their acknowledged points after close", bad, len(want))
	}
	return nil
}

// statuses returns the trained cohort's status.
func (b *bench) statuses() ([]engine.Status, error) {
	var out []engine.Status
	for _, name := range b.names {
		st, err := b.n.client.Status(b.ctx, name)
		b.acct.op(err)
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

// checkRestored checks one restore: every series back, the trained cohort
// all warm, and each trained series' points, cThld and training time as
// before the close.
func (b *bench) checkRestored(restored int, before []engine.Status) error {
	c := b.n.eng.Counters()
	ok := restored == len(b.names)+len(b.fleet) &&
		c.ModelRestoreWarm == int64(len(b.names)) && c.ModelRestoreCold == 0
	b.acct.check(ok)
	if !ok {
		return fmt.Errorf("restore: %d series back, %d warm, %d cold", restored, c.ModelRestoreWarm, c.ModelRestoreCold)
	}
	after, err := b.statuses()
	if err != nil {
		return err
	}
	for k := range before {
		x, y := before[k], after[k]
		ok := x.Points == y.Points && x.Trained && y.Trained &&
			math.Float64bits(x.CThld) == math.Float64bits(y.CThld) && x.TrainedAt.Equal(y.TrainedAt)
		b.acct.check(ok)
		if !ok {
			return fmt.Errorf("restore: %s status %+v, before close %+v", x.Name, y, x)
		}
	}
	return nil
}
