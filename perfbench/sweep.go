package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/workloads"
)

// Nominal pass lengths on the reference host (2 vCPU Xeon, go1.24):
// passes() turns --seconds into a pass count with them.
const (
	paperPassSeconds = 28.0
	meshPassSeconds  = 7.3
)

// sweepParams describes one simulator sweep workload.
type sweepParams struct {
	name      string
	cfg       core.Config
	specs     []workloads.Spec
	scale     workloads.Scale
	passes    int // identical timed sweeps; wall_s is their median
	setupReps int // pool warm-ups; setup_s is their median
}

// paperSweep is the full Table-2 × variant matrix that micache -all
// runs, at scale 0.1 on the single-tile machine. Its six CM cells are
// most of its host time.
func paperSweep(seconds int) sweepParams {
	return sweepParams{name: "paper-sweep", cfg: core.DefaultConfig(), specs: workloads.All(),
		scale: 0.1, passes: passes(seconds, paperPassSeconds), setupReps: 51}
}

// meshSweep runs the 16 non-CM workloads on a 4-tile mesh, the only
// workload where the NoC links, sliced L2 homes, per-tile HBM and the
// hub directory run.
func meshSweep(seconds int) sweepParams {
	cfg := core.DefaultConfig()
	cfg.Topology = noc.Config{Tiles: 4, Kind: noc.Mesh}
	var specs []workloads.Spec
	for _, s := range workloads.All() {
		if s.Name != "CM" {
			specs = append(specs, s)
		}
	}
	return sweepParams{name: "mesh-sweep", cfg: cfg, specs: specs,
		scale: 0.1, passes: passes(seconds, meshPassSeconds), setupReps: 51}
}

// warmPool builds a pool holding one reset system per variant.
func warmPool(cfg core.Config, vs []core.Variant) (*core.SystemPool, error) {
	pool := core.NewSystemPool(cfg)
	systems := make([]*core.System, len(vs))
	for i, v := range vs {
		s, err := pool.Get(v)
		if err != nil {
			return nil, fmt.Errorf("warming %s: %w", v.Label, err)
		}
		systems[i] = s
	}
	for _, s := range systems {
		pool.Put(s)
	}
	return pool, nil
}

// timedSetup warms reps pools and returns the last, with every warm-up
// time in seconds.
func timedSetup(cfg core.Config, vs []core.Variant, reps int) (*core.SystemPool, []float64, error) {
	var pool *core.SystemPool
	var times []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		p, err := warmPool(cfg, vs)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		pool = p
	}
	return pool, times, nil
}

// cellOrder returns the sweep's workload and variant order, shuffled
// by rng; core.RunMatrixWith runs the cells workload-major in it.
func cellOrder(specs []workloads.Spec, rng *rand.Rand) ([]workloads.Spec, []core.Variant) {
	specs = slices.Clone(specs)
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	vs := core.AllVariants()
	rng.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
	return specs, vs
}

// runSweep runs a sweep workload: seeded cell order, warm pool, then
// p.passes sequential matrix sweeps through core.RunMatrixWith with one
// worker. A traced run replaces the timed sweeps with a paired traced
// sweep and a store phase pushing every cell through the result-cache
// layers.
func runSweep(p sweepParams, o options) (*outcome, error) {
	rng := newRand(o.seed)
	specs, vs := cellOrder(p.specs, rng)
	out := newOutcome()

	pool, setup, err := timedSetup(p.cfg, vs, p.setupReps)
	if err != nil {
		return nil, err
	}
	var ref []core.Result
	if o.trace {
		ref, err = traceSweep(out, p, specs, vs, pool, o)
	} else {
		ref, err = timedSweeps(out, p, specs, vs, pool)
	}
	if err != nil {
		return nil, err
	}
	for _, r := range ref {
		if r.Snap.Cycles == 0 {
			out.fail(1, "%s/%s simulated 0 cycles", r.Workload, r.Variant)
		}
	}
	spotCheck(out, p, specs, vs, ref, rng)

	digest := resultsDigest(ref)
	fmt.Fprintf(os.Stderr, "perfbench: %s results digest %s\n", p.name, digest)
	out.info["results_digest"] = digest
	out.info["cells_per_pass"] = len(ref)
	out.info["scale"] = float64(p.scale)
	out.info["setup_times_s"] = setup

	geo, worst := pcbyRatios(ref)
	out.set("setup_s", "s", median(setup))
	out.set("peak_rss_mb", "MB", peakRSSMB())
	out.set("pcby_vs_best", "ratio", geo)
	out.set("pcby_worst_vs_best", "ratio", worst)
	return out, nil
}

// timedSweeps runs p.passes identical sweeps, sets wall_s to the median
// pass, and returns the first pass's results; every later pass must
// reproduce them cell for cell.
func timedSweeps(out *outcome, p sweepParams, specs []workloads.Spec, vs []core.Variant,
	pool *core.SystemPool) ([]core.Result, error) {
	total := len(specs) * len(vs)
	var walls, cellTimes []float64
	var ref []core.Result
	for pass := 0; pass < p.passes; pass++ {
		runtime.GC()
		out.attempted += total
		last := time.Now()
		start := last
		rs, err := core.RunMatrixWith(p.cfg, vs, specs, p.scale, core.RunMatrixOpts{
			Workers: 1,
			Pool:    pool,
			OnCell: func(core.Result, bool, int, int) {
				now := time.Now()
				cellTimes = append(cellTimes, now.Sub(last).Seconds())
				last = now
			},
		})
		wall := time.Since(start).Seconds()
		if err != nil {
			out.fail(total, "pass %d: %v", pass, err)
			continue
		}
		walls = append(walls, wall)
		if ref == nil {
			ref = rs
			continue
		}
		if n := mismatches(ref, rs); n > 0 {
			out.fail(n, "pass %d: %d cells differ from pass 0", pass, n)
		}
	}
	if ref == nil {
		return nil, fmt.Errorf("%s: every pass failed", p.name)
	}
	out.set("wall_s", "s", median(walls))
	out.info["passes"] = len(walls)
	out.info["pass_wall_s"] = walls
	out.info["cell_latency"] = latencySummary(cellTimes)
	return ref, nil
}

// traceSweep runs the sweep cell by cell, each cell plain and then with
// spans and the CPU profiler on (pairedCells), then the store phase,
// and sets the per-layer metrics. The plain results are the run's
// reference results.
func traceSweep(out *outcome, p sweepParams, specs []workloads.Spec, vs []core.Variant,
	pool *core.SystemPool, o options) ([]core.Result, error) {
	var cells []cellSpec
	for _, spec := range specs {
		for _, v := range vs {
			cells = append(cells, cellSpec{spec, v, p.scale})
		}
	}
	tr := newTracer()
	runtime.GC()
	root := tr.begin("sweep", 0)
	ph, err := pairedCells(out, tr, root, pool, cells, 1)
	tr.end(root)
	if err != nil {
		return nil, fmt.Errorf("traced sweep: %w", err)
	}
	setTraceMetrics(out, tr, ph)

	dir := filepath.Join(o.outDir, fmt.Sprintf("store-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	entries := make([]storeEntry, len(ph.plain))
	for i, r := range ph.plain {
		entries[i] = storeEntry{key: core.CellKey(p.cfg, r.Workload, r.Variant, float64(p.scale)), snap: r.Snap}
	}
	sc, err := storePhase(out, tr, entries, dir)
	if err != nil {
		return nil, err
	}

	setLayerMetrics(out, tr, ph, pool)
	setStoreMetrics(out, tr, sc)
	for _, n := range serviceOnly {
		out.set(n, "ms", 0)
	}
	path, err := o.resultPath(fmt.Sprintf("%s-seed%d-spans.json", p.name, o.seed))
	if err != nil {
		return nil, err
	}
	return ph.plain, tr.write(path)
}

// mismatches counts cells of b that differ from the same cell of a.
func mismatches(a, b []core.Result) int {
	if len(a) != len(b) {
		return max(len(a), len(b))
	}
	n := 0
	for i := range a {
		if !a[i].Equal(b[i]) {
			n++
		}
	}
	return n
}

// spotCheck re-runs one seed-chosen non-CM cell on a freshly built
// system: a pooled, reset system must give the same result.
func spotCheck(out *outcome, p sweepParams, specs []workloads.Spec, vs []core.Variant, ref []core.Result, rng *rand.Rand) {
	var cands []int
	for i, r := range ref {
		if r.Workload != "CM" {
			cands = append(cands, i)
		}
	}
	if len(cands) == 0 {
		return
	}
	i := cands[rng.IntN(len(cands))]
	spec, v := specs[i/len(vs)], vs[i%len(vs)]
	out.attempted++
	r, err := core.RunOne(p.cfg, v, spec, p.scale)
	switch {
	case err != nil:
		out.fail(1, "spot check %s/%s: %v", spec.Name, v.Label, err)
	case !r.Equal(ref[i]):
		out.fail(1, "spot check %s/%s: fresh system differs from pooled", spec.Name, v.Label)
	}
	out.info["spot_check"] = spec.Name + "/" + v.Label
}

// resultsDigest hashes the results in (workload, variant) order, so it
// is independent of the seeded cell order and comparable across runs
// and commits.
func resultsDigest(rs []core.Result) string {
	s := slices.Clone(rs)
	slices.SortFunc(s, func(a, b core.Result) int {
		if c := strings.Compare(a.Workload, b.Workload); c != 0 {
			return c
		}
		return strings.Compare(a.Variant, b.Variant)
	})
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, r := range s {
		_ = enc.Encode(r) // hash.Hash writes never fail
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// pcbyRatios returns the geomean and the maximum, over workloads, of
// cycles(CacheRW-PCby) / min(cycles of Uncached, CacheR, CacheRW): how
// close the paper's full optimisation stack comes to the best static
// policy on each workload.
func pcbyRatios(rs []core.Result) (geo, worst float64) {
	byWorkload := make(map[string]map[string]uint64)
	for _, r := range rs {
		if byWorkload[r.Workload] == nil {
			byWorkload[r.Workload] = make(map[string]uint64)
		}
		byWorkload[r.Workload][r.Variant] = r.Snap.Cycles
	}
	names := make([]string, 0, len(byWorkload))
	for w := range byWorkload {
		names = append(names, w)
	}
	slices.Sort(names)
	var ratios []float64
	for _, w := range names {
		c := byWorkload[w]
		best := min(c["Uncached"], c["CacheR"], c["CacheRW"])
		if best == 0 || c["CacheRW-PCby"] == 0 {
			continue
		}
		ratios = append(ratios, float64(c["CacheRW-PCby"])/float64(best))
	}
	if len(ratios) == 0 {
		return 0, 0
	}
	return geomean(ratios), slices.Max(ratios)
}
