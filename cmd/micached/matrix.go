package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// matrixRequest selects a workload×variant sweep. Empty lists mean
// "all": the zero request reproduces the paper's full Table-2 matrix.
type matrixRequest struct {
	Scale     float64  `json:"scale"`
	Workloads []string `json:"workloads,omitempty"`
	Variants  []string `json:"variants,omitempty"`
}

// matrixCellEvent is the payload of one SSE "cell" event: the cell's
// identity, sweep progress, whether the cache served it, and the two
// headline numbers so a dashboard can plot without parsing snapshots.
type matrixCellEvent struct {
	Workload string  `json:"workload"`
	Variant  string  `json:"variant"`
	Done     int     `json:"done"`
	Total    int     `json:"total"`
	Cached   bool    `json:"cached"`
	Cycles   uint64  `json:"cycles"`
	GVOPS    float64 `json:"gvops"`
}

// matrixDoneEvent is the payload of the terminal SSE "done" event.
type matrixDoneEvent struct {
	Cells     int            `json:"cells"`
	CacheHits int            `json:"cache_hits"`
	ElapsedMS float64        `json:"elapsed_ms"`
	Totals    stats.Snapshot `json:"totals"`
}

// sseEvent pairs an event name with its JSON payload for the write loop.
type sseEvent struct {
	name string
	data any
}

// handleMatrix runs a workload×variant sweep and streams progress as
// server-sent events: one "cell" event per completed cell, then a
// terminal "done" (or "error") event. The whole sweep occupies a
// single admission slot — cells run sequentially inside it — so a
// matrix request costs the queue exactly what one /run does, just for
// longer. Cells are cache-aware: cached cells are served without
// touching the pool, and fresh cells populate the cache for later
// /run and /matrix requests.
func (s *server) handleMatrix(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errResponse{Error: "POST only"})
		return
	}
	s.m.matrixRequests.Inc()
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, errResponse{Error: "server is draining"})
		return
	}

	var req matrixRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errResponse{Error: "bad request body: " + err.Error()})
		return
	}
	if req.Scale == 0 {
		req.Scale = 1.0
	}
	if !(req.Scale > 0) || req.Scale > s.maxScale {
		writeJSON(w, http.StatusBadRequest, errResponse{
			Error: fmt.Sprintf("scale must be in (0, %g], got %g", s.maxScale, req.Scale)})
		return
	}
	specs := workloads.All()
	if len(req.Workloads) > 0 {
		specs = specs[:0:0]
		for _, name := range req.Workloads {
			sp, err := workloads.ByName(name)
			if err != nil {
				writeJSON(w, http.StatusBadRequest, errResponse{Error: err.Error()})
				return
			}
			specs = append(specs, sp)
		}
	}
	vs := core.AllVariants()
	if len(req.Variants) > 0 {
		vs = vs[:0:0]
		for _, label := range req.Variants {
			v, err := core.VariantByLabel(label)
			if err != nil {
				writeJSON(w, http.StatusBadRequest, errResponse{Error: err.Error()})
				return
			}
			vs = append(vs, v)
		}
	}

	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errResponse{Error: "streaming unsupported by connection"})
		return
	}
	if !s.admit(w, r) {
		return
	}
	defer func() { <-s.sem }()
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	total := len(specs) * len(vs)
	// Buffered past the worst case so the sweep goroutine can always
	// finish and close the channel even if the write loop bails early
	// (client gone mid-stream).
	events := make(chan sseEvent, total+2)
	cacheHits := 0
	// cellsDone counts cells reported through OnCell: a failed sweep
	// returns no results, so this is the only record of its progress.
	cellsDone := 0
	start := time.Now()

	go func() {
		defer close(events)
		var totals stats.Snapshot
		opts := core.RunMatrixOpts{
			Workers:          1,
			Ctx:              r.Context(),
			MaxEventsPerCell: s.maxEvents,
			CellTimeout:      s.timeout,
			Pool:             s.pool,
			TotalsOut:        &totals,
			OnCell: func(res core.Result, cached bool, done, total int) {
				cellsDone++
				if cached {
					cacheHits++
				} else if s.cache != nil {
					s.cache.Put(core.CellKey(s.cfg, res.Workload, res.Variant, req.Scale), res.Snap)
				}
				events <- sseEvent{"cell", matrixCellEvent{
					Workload: res.Workload,
					Variant:  res.Variant,
					Done:     done,
					Total:    total,
					Cached:   cached,
					Cycles:   res.Snap.Cycles,
					GVOPS:    res.Snap.GVOPS(s.cfg.GPUClockMHz),
				}}
			},
		}
		if s.cache != nil {
			opts.Lookup = func(spec workloads.Spec, v core.Variant) (stats.Snapshot, bool) {
				return s.cache.Get(core.CellKey(s.cfg, spec.Name, v.Label, req.Scale))
			}
		}
		results, err := s.matrixFn(s.cfg, vs, specs, workloads.Scale(req.Scale), opts)
		if err != nil {
			s.log.Warn("matrix sweep failed", "err", err, "cells_done", cellsDone)
			events <- sseEvent{"error", errResponse{Error: err.Error()}}
			return
		}
		events <- sseEvent{"done", matrixDoneEvent{
			Cells:     len(results),
			CacheHits: cacheHits,
			ElapsedMS: time.Since(start).Seconds() * 1e3,
			Totals:    totals,
		}}
	}()

	for ev := range events {
		if err := writeSSE(w, ev.name, ev.data); err != nil {
			// The client is gone; the sweep goroutine stops via
			// r.Context() and the buffered channel absorbs its tail.
			s.m.clientGone.Inc()
			s.log.Info("client disconnected mid-matrix", "err", err)
			for range events {
			}
			return
		}
		flusher.Flush()
	}
}

// writeSSE frames one server-sent event: "event: <name>" then the
// JSON payload on a "data:" line and a blank terminator.
func writeSSE(w http.ResponseWriter, name string, data any) error {
	payload, err := json.Marshal(data)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, payload)
	return err
}
