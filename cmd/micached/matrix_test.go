package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// parsedEvent is one decoded SSE frame.
type parsedEvent struct {
	name string
	data json.RawMessage
}

// parseSSE decodes a full event-stream body into its frames.
func parseSSE(t *testing.T, body io.Reader) []parsedEvent {
	t.Helper()
	var evs []parsedEvent
	var cur parsedEvent
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = json.RawMessage(strings.TrimPrefix(line, "data: "))
		case line == "":
			if cur.name != "" {
				evs = append(evs, cur)
				cur = parsedEvent{}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scanning SSE stream: %v", err)
	}
	return evs
}

func postMatrix(t *testing.T, ts *httptest.Server, body string) (*http.Response, []parsedEvent) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/matrix", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("matrix status = %d (%s)", resp.StatusCode, buf.String())
	}
	return resp, parseSSE(t, resp.Body)
}

// TestMatrixStreams runs a 2×2 sweep end to end and checks the SSE
// stream: four cell events with monotonic progress, then a done event
// whose totals match the cells' sum.
func TestMatrixStreams(t *testing.T) {
	srv := testServer(serverOpts{Queue: 4})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	resp, evs := postMatrix(t, ts,
		`{"scale":0.05,"workloads":["FwSoft","FwPool"],"variants":["Uncached","CacheRW"]}`)
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 4 cells + 1 done", len(evs))
	}
	var cellSum stats.Snapshot
	for i, ev := range evs[:4] {
		if ev.name != "cell" {
			t.Fatalf("event %d = %q, want cell", i, ev.name)
		}
		var ce matrixCellEvent
		if err := json.Unmarshal(ev.data, &ce); err != nil {
			t.Fatal(err)
		}
		if ce.Done != i+1 || ce.Total != 4 {
			t.Fatalf("cell %d progress = %d/%d, want %d/4", i, ce.Done, ce.Total, i+1)
		}
		if ce.Cached {
			t.Fatalf("cell %d cached on a cache-disabled server", i)
		}
		if ce.Cycles == 0 {
			t.Fatalf("cell %d reported zero cycles", i)
		}
		cellSum.Cycles += ce.Cycles
	}
	if evs[4].name != "done" {
		t.Fatalf("final event = %q, want done", evs[4].name)
	}
	var de matrixDoneEvent
	if err := json.Unmarshal(evs[4].data, &de); err != nil {
		t.Fatal(err)
	}
	if de.Cells != 4 || de.CacheHits != 0 {
		t.Fatalf("done = %+v, want 4 cells / 0 hits", de)
	}
	if de.Totals.Cycles != cellSum.Cycles {
		t.Fatalf("totals cycles %d != sum of cell cycles %d", de.Totals.Cycles, cellSum.Cycles)
	}
}

// TestMatrixSharesCacheWithRun seeds one cell via /run, then sweeps:
// that cell streams as cached, and a second identical sweep is fully
// cached with zero new pool traffic.
func TestMatrixSharesCacheWithRun(t *testing.T) {
	srv := cacheTestServer(serverOpts{Queue: 4})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	resp, _ := postRun(t, ts, `{"workload":"FwSoft","variant":"CacheRW","scale":0.05}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed run = %d", resp.StatusCode)
	}

	const sweep = `{"scale":0.05,"workloads":["FwSoft","FwPool"],"variants":["CacheRW"]}`
	_, evs := postMatrix(t, ts, sweep)
	cached := map[string]bool{}
	for _, ev := range evs {
		if ev.name != "cell" {
			continue
		}
		var ce matrixCellEvent
		if err := json.Unmarshal(ev.data, &ce); err != nil {
			t.Fatal(err)
		}
		cached[ce.Workload] = ce.Cached
	}
	if !cached["FwSoft"] || cached["FwPool"] {
		t.Fatalf("cached map = %v, want FwSoft from /run's cache line, FwPool fresh", cached)
	}

	gets := srv.pool.Gets()
	_, evs2 := postMatrix(t, ts, sweep)
	var de matrixDoneEvent
	if err := json.Unmarshal(evs2[len(evs2)-1].data, &de); err != nil {
		t.Fatal(err)
	}
	if de.CacheHits != 2 {
		t.Fatalf("second sweep cache hits = %d, want 2 (fully cached)", de.CacheHits)
	}
	if g := srv.pool.Gets(); g != gets {
		t.Fatalf("fully cached sweep touched the pool: gets %d -> %d", gets, g)
	}

	// And the sweep populated the cache for /run in return.
	resp3, _ := postRun(t, ts, `{"workload":"FwPool","variant":"CacheRW","scale":0.05}`)
	if h := resp3.Header.Get("X-Micached-Cache"); h != "hit" {
		t.Fatalf("/run after sweep X-Micached-Cache = %q, want hit", h)
	}
}

// TestMatrixValidation covers the request-shape rejections.
func TestMatrixValidation(t *testing.T) {
	srv := testServer(serverOpts{Queue: 4})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	for _, tc := range []struct {
		name, body string
	}{
		{"unknown workload", `{"workloads":["NotAWorkload"]}`},
		{"unknown variant", `{"variants":["NotAVariant"]}`},
		{"bad scale", `{"scale":-1}`},
		{"over max scale", `{"scale":99}`},
		{"unknown field", `{"bogus":1}`},
	} {
		resp, err := http.Post(ts.URL+"/matrix", "application/json", bytes.NewBufferString(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/matrix")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /matrix = %d, want 405", resp.StatusCode)
	}
}

// lockedBuffer is a bytes.Buffer safe for a logger writing from the
// sweep goroutine while the test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestMatrixFailureLogsCellsDone checks a sweep that fails after some
// cells completed: the stream ends in an error event, and the log
// reports how many cells finished before the failure.
func TestMatrixFailureLogsCellsDone(t *testing.T) {
	var logs lockedBuffer
	srv := testServer(serverOpts{Queue: 4, Log: slog.New(slog.NewTextHandler(&logs, nil))})
	srv.matrixFn = func(cfg core.Config, vs []core.Variant, specs []workloads.Spec,
		scale workloads.Scale, opts core.RunMatrixOpts) ([]core.Result, error) {
		for i, name := range []string{"FwSoft", "FwPool"} {
			opts.OnCell(core.Result{Workload: name, Variant: "CacheRW"}, false, i+1, 3)
		}
		return nil, errors.New("third cell failed")
	}
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	_, evs := postMatrix(t, ts,
		`{"scale":0.05,"workloads":["FwSoft","FwPool","BwSoft"],"variants":["CacheRW"]}`)
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 2 cells + error", len(evs))
	}
	if last := evs[len(evs)-1]; last.name != "error" {
		t.Fatalf("stream ends in %q, want error", last.name)
	}
	if log := logs.String(); !strings.Contains(log, "cells_done=2") {
		t.Fatalf("failure log does not report cells_done=2:\n%s", log)
	}
}

// TestMatrixClientDisconnect hangs up mid-stream and checks the sweep
// goroutine unwinds: the admission slot frees and inflight returns to
// zero instead of leaking a worker.
func TestMatrixClientDisconnect(t *testing.T) {
	started := make(chan struct{})
	srv := testServer(serverOpts{Workers: 1, Queue: 1})
	srv.matrixFn = func(cfg core.Config, vs []core.Variant, specs []workloads.Spec,
		scale workloads.Scale, opts core.RunMatrixOpts) ([]core.Result, error) {
		close(started)
		<-opts.Ctx.Done()
		return nil, &core.ErrBudgetExceeded{Reason: core.ReasonCanceled, Cause: opts.Ctx.Err()}
	}
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/matrix",
		strings.NewReader(`{"scale":0.05,"workloads":["FwSoft"],"variants":["CacheRW"]}`))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			_, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		errc <- err
	}()
	<-started
	cancel()
	<-errc

	deadline := time.After(5 * time.Second)
	for srv.Inflight() != 0 {
		select {
		case <-deadline:
			t.Fatalf("inflight = %d after disconnect, want 0", srv.Inflight())
		case <-time.After(5 * time.Millisecond):
		}
	}
	// The freed slot admits the next request.
	select {
	case srv.sem <- struct{}{}:
		<-srv.sem
	default:
		t.Fatal("worker slot leaked after mid-stream disconnect")
	}
}

// TestMetricsEndpoint scrapes /metrics after mixed traffic and checks
// the exposition text carries the server, cache, and pool families.
func TestMetricsEndpoint(t *testing.T) {
	srv := cacheTestServer(serverOpts{Queue: 4})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	postRun(t, ts, `{"workload":"FwSoft","variant":"CacheRW","scale":0.05}`)
	postRun(t, ts, `{"workload":"FwSoft","variant":"CacheRW","scale":0.05}`) // hit
	postMatrix(t, ts, `{"scale":0.05,"workloads":["FwSoft"],"variants":["CacheRW"]}`)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"micached_run_requests_total 2",
		"micached_matrix_requests_total 1",
		"micached_cache_misses_total 1",
		"micached_cache_entries 1",
		"micached_pool_gets_total 1",
		"micached_pool_puts_total 1",
		"micached_client_gone_total 0",
		"# TYPE micached_inflight gauge",
		"# HELP micached_timeouts_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
	if resp, err := http.Post(ts.URL+"/metrics", "text/plain", nil); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST /metrics = %d, want 405", resp.StatusCode)
		}
	}
}
