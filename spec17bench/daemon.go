package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/insight"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// daemon is an in-process spec17d: server.New configured as
// cmd/spec17d's flag defaults configure it (in-memory store, tracing,
// insight and jobs on), except for one simulation worker, serving on
// a loopback listener.
type daemon struct {
	srv   *server.Server
	reg   *metrics.Registry
	plane *insight.Plane // nil for a bare server
	url   string
	done  chan error
}

// traceRing is the Tracer's finished-trace ring size (spec17d's
// default).
const traceRing = 256

// openStore returns an in-memory store whose instruments land in reg.
func openStore(reg *metrics.Registry) (*store.Store, error) {
	return store.Open(store.Config{Metrics: reg, Log: telemetry.NewLogger(io.Discard, telemetry.LevelInfo).Std("store")})
}

// startDaemon serves a new server over st. With observed false the
// server has no Tracer and no insight plane (the bare server the
// tracing-overhead probe compares against).
func startDaemon(st *store.Store, reg *metrics.Registry, observed bool) (*daemon, error) {
	logger := telemetry.NewLogger(io.Discard, telemetry.LevelInfo)
	d := &daemon{reg: reg, done: make(chan error, 1)}
	var tracer *telemetry.Tracer
	if observed {
		d.plane = insight.New(insight.Config{
			Metrics:   reg,
			Log:       logger,
			Interval:  5 * time.Second,
			Ring:      360,
			EventRing: 256,
			SLO:       insight.SLOConfig{Latency: 500 * time.Millisecond},
		})
		tracer = telemetry.NewTracer(telemetry.TracerConfig{
			Capacity: traceRing, Metrics: reg, Log: logger, OnSlow: d.plane.OnSlowTrace,
		})
		d.plane.AttachStore(st)
		d.plane.Start()
	}
	d.srv = server.New(server.Config{
		ResultCacheSize:   512,
		LabCacheSize:      4,
		Workers:           2,
		SimWorkers:        1,
		BatchConcurrency:  4,
		UpgradeWorkers:    2,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxJobs:           256,
		JobWorkers:        2,
		WebhookTimeout:    5 * time.Second,
		Store:             st,
		Metrics:           reg,
		Log:               logger,
		Tracer:            tracer,
		Insight:           d.plane,
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if d.plane != nil {
			d.plane.Stop()
		}
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	d.url = "http://" + l.Addr().String()
	go func() { d.done <- d.srv.Serve(l) }()
	return d, nil
}

// stop shuts the server down and waits for Serve and the insight
// plane to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.done; err == nil {
		err = serr
	}
	if d.plane != nil {
		d.plane.Stop()
	}
	return err
}

// liveHeapMB stops the insight plane's sampling loop, waiting for a
// tick in progress (a tick scans the whole store and holds megabytes
// while it does), then returns the live heap. The server keeps
// serving.
func (d *daemon) liveHeapMB() float64 {
	if d.plane != nil {
		d.plane.Stop()
	}
	return liveHeapMB()
}

// counters reads the server's result-cache counters.
func (d *daemon) counters() (hits, misses, computations float64) {
	s := d.reg.Snapshot()
	return s.Value("spec17d_cache_hits_total"), s.Value("spec17d_cache_misses_total"),
		s.Value("spec17d_computations_total")
}

// client is one closed-loop client holding one keep-alive connection.
type client struct {
	tr  *http.Transport
	hc  *http.Client
	url string
}

func newClient(url string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{tr: tr, hc: &http.Client{Transport: tr}, url: url}
}

// get fetches path and returns the body and the request's latency. A
// non-200 status is an error.
func (c *client) get(path string) ([]byte, time.Duration, error) {
	start := time.Now()
	resp, err := c.hc.Get(c.url + path)
	if err != nil {
		return nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	if err != nil {
		return nil, d, fmt.Errorf("reading %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return body, d, fmt.Errorf("GET %s: status %d: %.200s", path, resp.StatusCode, body)
	}
	return body, d, nil
}

func (c *client) close() { c.tr.CloseIdleConnections() }
