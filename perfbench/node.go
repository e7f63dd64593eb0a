package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"opprentice/internal/engine"
	modelreg "opprentice/internal/registry"
	"opprentice/internal/service"
	"opprentice/internal/tsdb"
)

// node is one self-hosted serving stack, wired as opprenticed wires it: a
// durable tsdb store and a model registry under dir, the engine on top,
// and the HTTP service on a loopback listener. The client is limited to two
// connections, one per core of the machine the figures were taken on.
type node struct {
	dir    string
	store  *tsdb.Store
	models *modelreg.Registry
	eng    *engine.Engine
	srv    *service.Server
	hs     *http.Server
	served chan struct{} // closed when hs.Serve returns
	tr     *http.Transport
	client *service.Client
	pubs   *publishLog
	// goroutines is the process's goroutine count before the node opened.
	goroutines int
}

// openNode opens (or reopens) the stack rooted at dir. With a tracer, the
// store is wrapped in the timing decorator and the engine's hooks feed the
// tracer as well.
func openNode(dir string, t *tracer) (*node, error) {
	store, err := tsdb.Open(filepath.Join(dir, "wal"))
	if err != nil {
		return nil, err
	}
	models, err := modelreg.Open(modelreg.Config{Dir: filepath.Join(dir, "models")})
	if err != nil {
		store.Close()
		return nil, err
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	n := &node{dir: dir, store: store, models: models, pubs: newPublishLog(t), goroutines: runtime.NumGoroutine()}
	var st engine.Store = store
	if t != nil {
		st = &timedStore{Store: store, t: t}
	}
	n.eng = engine.New(engine.Config{
		Log:    quiet,
		Store:  st,
		Models: models,
		Hooks:  n.pubs.hooks(),
	})
	n.srv = service.NewServerWithEngine(n.eng, quiet)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.srv.Close()
		store.Close()
		return nil, err
	}
	n.hs = &http.Server{Handler: n.srv.Handler()}
	n.served = make(chan struct{})
	go func() {
		defer close(n.served)
		_ = n.hs.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	n.tr = &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	n.client = service.NewClient("http://"+ln.Addr().String(), &http.Client{Transport: n.tr, Timeout: 2 * time.Minute})
	return n, nil
}

// close stops the listener, then the engine (which drains its WAL writers
// and publishes any unpublished model), then the store. It returns once
// the node's goroutines have exited, so that the closed node's memory is
// garbage before the next heap baseline.
func (n *node) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := n.hs.Shutdown(ctx)
	<-n.served
	n.tr.CloseIdleConnections()
	n.srv.Close()
	err = errors.Join(err, n.store.Close())
	for runtime.NumGoroutine() > n.goroutines && ctx.Err() == nil {
		time.Sleep(5 * time.Millisecond)
	}
	if ctx.Err() != nil {
		err = errors.Join(err, fmt.Errorf("node goroutines still running after close: %d, %d before open", runtime.NumGoroutine(), n.goroutines))
	}
	return err
}

// publishLog records the engine's training and publication edges so a
// caller can wait until a series' new model is in the registry, and the
// tracer can time the train → publish lag.
type publishLog struct {
	mu        sync.Mutex
	cond      *sync.Cond
	published map[string]int
	trainedAt map[string]time.Time
	failures  []error
	t         *tracer
}

func newPublishLog(t *tracer) *publishLog {
	p := &publishLog{published: map[string]int{}, trainedAt: map[string]time.Time{}, t: t}
	p.cond = sync.NewCond(&p.mu)
	return p
}

func (p *publishLog) hooks() engine.Hooks {
	return engine.Hooks{
		TrainDone: func(series string, _ engine.TrainResult, err error) {
			if err != nil {
				return
			}
			p.mu.Lock()
			p.trainedAt[series] = time.Now()
			p.mu.Unlock()
		},
		PublishDone: func(series string, _ uint64, err error) {
			now := time.Now()
			p.mu.Lock()
			defer p.mu.Unlock()
			if err != nil {
				p.failures = append(p.failures, fmt.Errorf("publish %s: %w", series, err))
			} else {
				p.published[series]++
				if t0, ok := p.trainedAt[series]; ok && p.t != nil {
					p.t.sample("registry.publish_ms", now.Sub(t0).Seconds()*1e3)
				}
			}
			p.cond.Broadcast()
		},
	}
}

// count returns how many models have been published for series.
func (p *publishLog) count(series string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.published[series]
}

// wait blocks until series has at least n publications, a publication
// fails, or the timeout passes.
func (p *publishLog) wait(series string, n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	})
	defer timer.Stop()
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.published[series] < n {
		if len(p.failures) > 0 {
			return p.failures[0]
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("model for %s not published within %v", series, timeout)
		}
		p.cond.Wait()
	}
	return nil
}
