package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"syscall"
	"time"

	"opprentice/internal/engine"
	"opprentice/internal/service"
)

// clients is how many load goroutines, and so connections, the generator
// uses. Request k always goes to the goroutine k%clients, and with an even
// cohort size that pins every series to one goroutine, so each series sees
// its points in schedule order and its verdict sequence is reproducible.
const clients = 2

// maxDrain bounds how long a tier may keep draining requests that fell
// behind its schedule after the window closed. Requests still unsent then
// are left out, and the tier counts as backlogged.
const maxDrain = 10 * time.Second

// openLoop offers n requests at rate per second, request k due at
// start + k/rate regardless of how long earlier requests took, and calls do
// for each. Latency runs from the due time, so a stall also delays, and is
// charged to, every request queued behind it (the coordinated-omission
// correction). do reports whether the request was shed or failed.
func openLoop(ctx context.Context, rate float64, n int, do func(k int) error) window {
	res := window{Scheduled: n}
	cpu0 := processCPU()
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(10 * time.Millisecond)
	stopAt := start.Add(time.Duration(n)*interval + maxDrain)
	lat := make([][]float64, clients)
	late := make([][]float64, clients)
	sent := make([]int, clients)
	failed := make([]int, clients)
	lastDone := make([]time.Time, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < n; k += clients {
				due := start.Add(time.Duration(k) * interval)
				now := time.Now()
				if now.After(stopAt) || ctx.Err() != nil {
					return
				}
				if d := due.Sub(now); d > 0 {
					time.Sleep(d)
					now = time.Now()
				}
				err := do(k)
				done := time.Now()
				sent[w]++
				ms := done.Sub(due).Seconds() * 1e3
				if err != nil {
					failed[w]++
					ms = failedLatencyMs
				}
				lat[w] = append(lat[w], ms)
				late[w] = append(late[w], now.Sub(due).Seconds()*1e3)
				lastDone[w] = done
			}
		}(w)
	}
	wg.Wait()
	// Interleave the per-goroutine lateness back into schedule order.
	for i := 0; ; i++ {
		w, j := i%clients, i/clients
		if j >= len(late[w]) {
			break
		}
		res.Late = append(res.Late, late[w][j])
	}
	end := start
	for w := 0; w < clients; w++ {
		res.Latencies = append(res.Latencies, lat[w]...)
		res.Sent += sent[w]
		res.Failed += failed[w]
		if lastDone[w].After(end) {
			end = lastDone[w]
		}
	}
	sort.Float64s(res.Latencies)
	res.WindowSec = end.Sub(start).Seconds()
	res.CPUSec = (processCPU() - cpu0).Seconds()
	return res
}

// processCPU is the CPU time the process has used, user and system: the
// server's, the engine's background writers' and the load generator's
// alike. Unlike wall time it does not grow while a request waits for a
// disk or a descheduled thread.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// isShed reports an admission-control shed (HTTP 429 or the engine's
// ErrOverloaded).
func isShed(err error) bool {
	var apiErr *service.APIError
	return errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusTooManyRequests ||
		errors.Is(err, engine.ErrOverloaded)
}

// stream pushes the batches through one streaming /v1/ingest request in
// order (closed loop: the sender is the only client and writes as fast as
// the server reads) and checks that every point was appended.
func stream(ctx context.Context, c *service.Client, batches []streamBatch) error {
	st, err := c.StreamPoints(ctx)
	if err != nil {
		return err
	}
	want := 0
	for _, b := range batches {
		if err := st.Send(b.name, b.values); err != nil {
			_, cerr := st.Close()
			return errors.Join(err, cerr)
		}
		want += len(b.values)
	}
	sum, err := st.Close()
	if err != nil {
		return err
	}
	if sum.Appended != want {
		return fmt.Errorf("ingest stream appended %d of %d points", sum.Appended, want)
	}
	return nil
}

// streamBatch is one frame of a bulk ingest stream.
type streamBatch struct {
	name   string
	values []float64
}
