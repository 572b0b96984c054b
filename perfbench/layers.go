package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/resultcache"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// storeFsync is the persistence durability both the store phase and
// the micached child run with. Flushes to disk measure the host's
// storage, not this program, and would dominate the write path.
const storeFsync = false

// serviceOnly names the per-layer metrics only a running micached can
// produce; the sweeps report them as 0.
var serviceOnly = []string{
	"micached.overhead_ms",
	"micached.mem_hit_p50_ms", "micached.mem_hit_p99_ms",
	"micached.disk_hit_p50_ms", "micached.disk_hit_p99_ms",
	"micached.miss_p50_ms", "micached.miss_p99_ms",
}

// profiledLayers are the layers whose flat CPU share is reported.
var profiledLayers = []string{"event", "cache", "dram", "gpu", "workloads", "noc", "runtime"}

// tracedCell is one simulated cell of a traced phase.
type tracedCell struct {
	result core.Result
	fired  uint64  // events the cell's engine fired
	dur    float64 // seconds, the cell span
}

// runTracedCell runs one cell on a pooled system with a span around
// each layer call: pool get, workload build, system run, pool put.
func runTracedCell(tr *tracer, parent int, pool *core.SystemPool, spec workloads.Spec,
	v core.Variant, scale workloads.Scale) (tracedCell, error) {
	c := tr.begin("cell", parent)
	g := tr.begin("pool.get", c)
	sys, err := pool.Get(v)
	tr.end(g)
	if err != nil {
		return tracedCell{}, err
	}
	b := tr.begin("workloads.build", c)
	w := spec.Build(scale)
	tr.end(b)
	r := tr.begin("system.run", c)
	snap, err := sys.Run(w)
	tr.end(r)
	if err != nil {
		return tracedCell{}, fmt.Errorf("%s/%s: %w", spec.Name, v.Label, err)
	}
	fired := sys.Sim.Fired()
	pt := tr.begin("pool.put", c)
	pool.Put(sys)
	tr.end(pt)
	tr.end(c)
	sp := tr.spans[c-1]
	return tracedCell{
		result: core.Result{Workload: spec.Name, Class: spec.Class, Variant: v.Label, Snap: snap},
		fired:  fired,
		dur:    time.Duration(sp.End - sp.Start).Seconds(),
	}, nil
}

// cellSpec names one cell of a traced phase.
type cellSpec struct {
	spec  workloads.Spec
	v     core.Variant
	scale workloads.Scale
}

// tracedPhase is what pairedCells measured.
type tracedPhase struct {
	plain   []core.Result // the plain runs, in cell order
	cells   []tracedCell  // the traced runs, in cell order
	plainS  float64       // seconds of the plain runs
	tracedS float64       // seconds of the traced runs
	prof    *cpuProfile
	alloc   uint64 // bytes the traced runs allocated
	gcs     uint32 // GC cycles that ended during the traced runs
}

// pairedCells runs the cells in blocks of block cells, each block twice
// back to back on pooled systems: plain, with nothing around the layer
// calls, and traced, with spans around them and the CPU profiler on.
// Both halves of a block run within seconds of each other, and the
// half that goes first alternates from block to block, so tracedS -
// plainS is the cost of tracing rather than the host's drift or a warm
// second run. A traced result that differs from its plain twin fails a
// check.
func pairedCells(out *outcome, tr *tracer, root int, pool *core.SystemPool, cells []cellSpec, block int) (tracedPhase, error) {
	ph := tracedPhase{prof: newCPUProfile()}
	plain := func(part []cellSpec) error {
		start := time.Now()
		defer func() { ph.plainS += time.Since(start).Seconds() }()
		for _, c := range part {
			sys, err := pool.Get(c.v)
			if err != nil {
				return err
			}
			snap, err := sys.Run(c.spec.Build(c.scale))
			if err != nil {
				return fmt.Errorf("%s/%s: %w", c.spec.Name, c.v.Label, err)
			}
			pool.Put(sys)
			ph.plain = append(ph.plain, core.Result{Workload: c.spec.Name, Class: c.spec.Class, Variant: c.v.Label, Snap: snap})
		}
		return nil
	}
	traced := func(part []cellSpec) error {
		return ph.prof.run(func() error {
			ms0 := readMem()
			start := time.Now()
			defer func() {
				ph.tracedS += time.Since(start).Seconds()
				ms1 := readMem()
				ph.alloc += ms1.TotalAlloc - ms0.TotalAlloc
				ph.gcs += ms1.NumGC - ms0.NumGC
			}()
			for _, c := range part {
				tc, err := runTracedCell(tr, root, pool, c.spec, c.v, c.scale)
				if err != nil {
					return err
				}
				ph.cells = append(ph.cells, tc)
			}
			return nil
		})
	}
	for i, lo := 0, 0; lo < len(cells); i, lo = i+1, lo+block {
		part := cells[lo:min(lo+block, len(cells))]
		first, second := plain, traced
		if i%2 == 1 {
			first, second = traced, plain
		}
		if err := first(part); err != nil {
			return ph, err
		}
		if err := second(part); err != nil {
			return ph, err
		}
	}
	out.attempted += len(ph.cells)
	for i, c := range ph.cells {
		if !c.result.Equal(ph.plain[i]) {
			out.fail(1, "traced %s/%s differs from its plain run", c.result.Workload, c.result.Variant)
		}
	}
	return ph, nil
}

// setTraceMetrics sets the cost of tracing a phase: all of it, measured
// back to back, the spans' share from their count and measured cost
// per span, and the rest, which is the CPU profiler's.
func setTraceMetrics(out *outcome, tr *tracer, ph tracedPhase) {
	all := ph.tracedS - ph.plainS
	spans := float64(len(tr.spans)) * spanCost()
	out.set("trace.overhead_s", "s", all)
	out.set("trace.span_s", "s", spans)
	out.set("trace.profiler_s", "s", all-spans)
}

// storeEntry is one cell result under its content address.
type storeEntry struct {
	key  string
	snap stats.Snapshot
}

// storeCounts are the result-cache and persistence counters of a
// store phase.
type storeCounts struct {
	rcHits, rcMisses          uint64
	diskHits, writes, corrupt uint64
}

// storePhase pushes entries through the layers micached serves them
// with, a span around each call: JSON encoding, persist.Put into a
// fresh store in dir, resultcache.Get from memory, then persist.Open
// of the directory and persist.Get of every entry. Every read must
// return the snapshot that was written.
func storePhase(out *outcome, tr *tracer, entries []storeEntry, dir string) (storeCounts, error) {
	root := tr.begin("store", 0)
	defer tr.end(root)
	st, err := persist.Open(dir, persist.Options{Fsync: storeFsync})
	if err != nil {
		return storeCounts{}, err
	}
	rc := resultcache.New(len(entries)+1, 0)
	out.attempted += len(entries)
	bad := 0
	for _, e := range entries {
		en := tr.begin("stats.encode", root)
		_, err := json.Marshal(e.snap)
		tr.end(en)
		if err != nil {
			return storeCounts{}, err
		}
		pp := tr.begin("persist.put", root)
		err = st.Put(e.key, e.snap)
		tr.end(pp)
		if err != nil {
			bad++
			continue
		}
		rc.Put(e.key, e.snap)
	}
	for _, e := range entries {
		g := tr.begin("resultcache.get", root)
		snap, ok := rc.Get(e.key)
		tr.end(g)
		if !ok || !snap.Equal(e.snap) {
			bad++
		}
	}
	written := st.Counters()
	if err := st.Close(); err != nil {
		return storeCounts{}, err
	}
	op := tr.begin("persist.open", root)
	st, err = persist.Open(dir, persist.Options{Fsync: storeFsync})
	tr.end(op)
	if err != nil {
		return storeCounts{}, err
	}
	defer st.Close()
	for _, e := range entries {
		g := tr.begin("persist.get", root)
		snap, ok, err := st.Get(e.key)
		tr.end(g)
		if err != nil || !ok || !snap.Equal(e.snap) {
			bad++
		}
	}
	if bad > 0 {
		out.fail(bad, "store phase: %d writes or reads did not round-trip", bad)
	}
	read := st.Counters()
	hits, misses, _ := rc.Counters()
	return storeCounts{rcHits: hits, rcMisses: misses, diskHits: read.Hits,
		writes: written.Writes, corrupt: written.Corrupt + read.Corrupt}, nil
}

// readMem returns the runtime's allocation counters.
func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// setLayerMetrics sets the simulator-side per-layer metrics of a
// traced phase: cell and pool spans, the engine's event count, the
// summed model counters of every cell, flat CPU shares from the
// profile, and the runtime's allocation counters over the phase.
func setLayerMetrics(out *outcome, tr *tracer, ph tracedPhase, pool *core.SystemPool) {
	var durs []float64
	var all, cm float64
	var fired uint64
	var s stats.Snapshot
	var fwd, stall, peak uint64
	for _, c := range ph.cells {
		durs = append(durs, c.dur)
		all += c.dur
		if c.result.Workload == "CM" {
			cm += c.dur
		}
		fired += c.fired
		s.Add(c.result.Snap)
		for _, l := range c.result.Snap.Links {
			fwd += l.Forwarded
			stall += l.StallCycles
			peak = max(peak, l.QueuePeak)
		}
	}
	if len(durs) == 0 {
		durs = []float64{0}
	}
	built, reused := pool.Counts()
	out.set("core.cell_s.p50", "s", median(durs))
	out.set("core.cell_s.max", "s", slices.Max(durs))
	out.set("core.cm_share", "share", ratio(cm, all))
	out.set("core.pool_s", "s", tr.total("pool.get")+tr.total("pool.put"))
	out.set("core.pool_built", "count", float64(built))
	out.set("core.pool_reused", "count", float64(reused))
	out.set("core.run_ms", "ms", median(tr.durations("system.run"))*1e3)
	out.set("event.fired", "count", float64(fired))
	out.set("event.ns_per_event", "ns", ratio(tr.total("system.run")*1e9, float64(fired)))
	out.set("cache.l1.hits", "count", float64(s.L1.Hits))
	out.set("cache.l1.misses", "count", float64(s.L1.Misses))
	out.set("cache.l1.bypasses", "count", float64(s.L1.Bypasses))
	out.set("cache.l1.stalls", "count", float64(s.L1.Stalls))
	out.set("cache.l2.hits", "count", float64(s.L2.Hits))
	out.set("cache.l2.misses", "count", float64(s.L2.Misses))
	out.set("cache.l2.stalls", "count", float64(s.L2.Stalls))
	out.set("cache.stall_mshr", "count", float64(s.L1.StallMSHR+s.L2.StallMSHR))
	out.set("cache.stall_alloc", "count", float64(s.L1.StallAlloc+s.L2.StallAlloc))
	out.set("coherence.invalidates", "count", float64(s.L1.Invalidates+s.L2.Invalidates))
	out.set("coherence.writebacks", "count", float64(s.L1.Writebacks+s.L2.Writebacks))
	out.set("policy.rinses", "count", float64(s.L1.Rinses+s.L2.Rinses))
	out.set("policy.pred_bypass", "count", float64(s.L1.PredBypass+s.L2.PredBypass))
	out.set("policy.alloc_bypass", "count", float64(s.L1.AllocBypass+s.L2.AllocBypass))
	out.set("dram.reads", "count", float64(s.DRAM.Reads))
	out.set("dram.writes", "count", float64(s.DRAM.Writes))
	out.set("dram.row_hit_rate", "share", s.DRAM.RowHitRate())
	out.set("gpu.vector_ops", "count", float64(s.VectorOps))
	out.set("gpu.mem_requests", "count", float64(s.GPUMemRequests))
	out.set("workloads.build_s", "s", tr.total("workloads.build"))
	out.set("noc.forwarded", "count", float64(fwd))
	out.set("noc.stall_cycles", "count", float64(stall))
	out.set("noc.queue_peak", "count", float64(peak))
	ls := layerShares(ph.prof.shares())
	for _, l := range profiledLayers {
		out.set(l+".cpu_share", "share", ls[l])
	}
	out.set("runtime.alloc_mb", "MB", float64(ph.alloc)/(1<<20))
	out.set("runtime.gc_cycles", "count", float64(ph.gcs))
	out.info["layer_cells"] = len(ph.cells)
}

// setStoreMetrics sets the per-layer metrics of a store phase.
func setStoreMetrics(out *outcome, tr *tracer, sc storeCounts) {
	out.set("resultcache.get_us", "us", median(tr.durations("resultcache.get"))*1e6)
	out.set("resultcache.hits", "count", float64(sc.rcHits))
	out.set("resultcache.misses", "count", float64(sc.rcMisses))
	out.set("persist.get_us", "us", median(tr.durations("persist.get"))*1e6)
	out.set("persist.put_us", "us", median(tr.durations("persist.put"))*1e6)
	out.set("persist.open_s", "s", tr.total("persist.open"))
	out.set("persist.disk_hits", "count", float64(sc.diskHits))
	out.set("persist.writes", "count", float64(sc.writes))
	out.set("persist.corrupt", "count", float64(sc.corrupt))
	out.set("stats.encode_us", "us", median(tr.durations("stats.encode"))*1e6)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
