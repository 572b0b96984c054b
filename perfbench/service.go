package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// servicePassSeconds is the nominal length of one service pass on the
// reference host (see paperPassSeconds).
const servicePassSeconds = 0.62

// Base scales spread evenly over [minScale, maxScale]: every service
// workload's cells cost 1–3 ms of simulation there.
const minScale, maxScale = 0.0005, 0.002

// expensiveCells are the Table-2 workloads the service mix leaves out:
// their cells cost 4–300 ms at any scale, so misses on them would make
// the simulator, not the service layers, most of the mix's time.
var expensiveCells = []string{"CM", "FwGRU", "FwLSTM", "FwBwGRU", "FwBwLSTM", "DGEMM", "FwFc"}

// kind is the predicted outcome of one request.
type kind int

const (
	memHit kind = iota
	diskHit
	miss
)

var kindNames = [...]string{"mem_hit", "disk_hit", "miss"}

// serviceParams sizes the service mix.
type serviceParams struct {
	specs          []workloads.Spec
	passes         int // identical request passes; wall_s is their median
	scalesPerPass  int // base scales per (workload, variant) per pass
	groupSize      int // keys per (workload, variant, base scale): one miss, the rest disk hits
	memHitsPerPass int
	setupReps      int // server starts; setup_s is their median
}

// serviceMix is the default service workload. Per pass, 10 workloads ×
// 6 variants × 2 base scales give 120 key groups of three: 120 misses
// and 240 disk hits, with 1500 memory hits. The weights are a synthetic
// choice, made so that each outcome takes a comparable share of a
// pass's host time (README.md gives the shares). Many short passes let
// the median pass discard a burst of host noise that a single long pass
// would absorb.
func serviceMix(seconds int) serviceParams {
	var specs []workloads.Spec
	for _, s := range workloads.All() {
		if !slices.Contains(expensiveCells, s.Name) {
			specs = append(specs, s)
		}
	}
	return serviceParams{specs: specs, passes: passes(seconds, servicePassSeconds),
		scalesPerPass: 2, groupSize: 3, memHitsPerPass: 1500, setupReps: 11}
}

// svcKey is one cell the service is asked for.
type svcKey struct {
	spec  workloads.Spec
	v     core.Variant
	scale float64
	group int    // index of the first key of the key's group
	base  bool   // the group member whose scale is the grid value itself
	role  kind   // diskHit (pre-populated) or miss
	key   string // core.CellKey, the service's content address
	body  []byte // the /run request
}

// svcRequest is one request of the stream.
type svcRequest struct {
	key  int // index into the key list
	want kind
	pass int
}

// twinStep separates the scales of a group's keys. All of them build
// the same kernels, so a group costs the same whichever member the seed
// leaves to be simulated, and every member has the same snapshot.
const twinStep = 1e-6

// serviceStream generates the run's keys and request stream from the
// seed. Each (workload, variant, base scale) yields a group of keys;
// the seed picks one to be never seen before its request (a miss) and
// the others are pre-populated (a disk hit on first touch). Repeats of
// already-touched keys are memory hits. Every pass has the same counts
// of each outcome and the same cells; only the order and the roles in
// each group depend on the seed.
func serviceStream(p serviceParams, seed uint64) ([]svcKey, []svcRequest) {
	rng := newRand(seed)
	vs := core.AllVariants()
	cfg := core.DefaultConfig()
	grid := p.passes * p.scalesPerPass
	var keys []svcKey
	var reqs []svcRequest
	var touched []int
	for pass := 0; pass < p.passes; pass++ {
		var firsts []int
		for j := pass; j < grid; j += p.passes {
			base := minScale
			if grid > 1 {
				base += float64(j) * (maxScale - minScale) / float64(grid-1)
			}
			for _, spec := range p.specs {
				for _, v := range vs {
					m, group := rng.IntN(p.groupSize), len(keys)
					for i := 0; i < p.groupSize; i++ {
						scale := base * (1 + float64(i)*twinStep)
						role := diskHit
						if i == m {
							role = miss
						}
						body, _ := json.Marshal(struct {
							Workload string  `json:"workload"`
							Variant  string  `json:"variant"`
							Scale    float64 `json:"scale"`
						}{spec.Name, v.Label, scale}) // plain strings and a finite float always encode
						keys = append(keys, svcKey{spec: spec, v: v, scale: scale, group: group, base: i == 0, role: role,
							key: core.CellKey(cfg, spec.Name, v.Label, scale), body: body})
						firsts = append(firsts, len(keys)-1)
					}
				}
			}
		}
		rng.Shuffle(len(firsts), func(i, j int) { firsts[i], firsts[j] = firsts[j], firsts[i] })
		// Interleave: a token is a first touch or a repeat; the stream
		// starts with a first touch so a repeat always has a key.
		isRepeat := make([]bool, len(firsts)+p.memHitsPerPass)
		for i := 0; i < p.memHitsPerPass; i++ {
			isRepeat[i] = true
		}
		rng.Shuffle(len(isRepeat), func(i, j int) { isRepeat[i], isRepeat[j] = isRepeat[j], isRepeat[i] })
		if len(touched) == 0 && isRepeat[0] {
			k := slices.Index(isRepeat, false)
			isRepeat[0], isRepeat[k] = false, true
		}
		next := 0
		for _, rep := range isRepeat {
			if rep {
				reqs = append(reqs, svcRequest{key: touched[rng.IntN(len(touched))], want: memHit, pass: pass})
				continue
			}
			k := firsts[next]
			next++
			touched = append(touched, k)
			reqs = append(reqs, svcRequest{key: k, want: keys[k].role, pass: pass})
		}
	}
	return keys, reqs
}

// reply is one response as the client saw it.
type reply struct {
	status  int
	cache   string // X-Micached-Cache
	body    []byte
	latency float64 // seconds, request written to body read
}

// runService runs the service mix: populate a cache directory, start
// micached over it (setup), drive the seeded stream over one loopback
// connection, stop the server, and check every reply.
func runService(p serviceParams, o options) (*outcome, error) {
	keys, reqs := serviceStream(p, o.seed)
	out := newOutcome()
	work := filepath.Join(o.outDir, fmt.Sprintf("service-%d", os.Getpid()))
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	dir := filepath.Join(work, "cache")
	groups, err := populate(keys, dir)
	if err != nil {
		return nil, err
	}
	// Write the fixture back to disk now, so that the kernel does not
	// flush it in the background while setup is timed.
	syscall.Sync()

	// Set up: start the server over the populated directory several
	// times and keep the last one. Each start re-reads every entry.
	logPath, err := o.resultPath(fmt.Sprintf("micached-seed%d.log", o.seed))
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	var srv *child
	var setups []float64
	for i := 0; i < p.setupReps; i++ {
		s, d, err := startMicached(o.micached, dir, len(keys)+16, logf)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
		if i < p.setupReps-1 {
			if _, err := s.stop(); err != nil {
				return nil, err
			}
			continue
		}
		srv = s
	}
	defer srv.stop()

	client := &http.Client{
		Transport: &http.Transport{Proxy: nil, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
	before, err := scrape(client, srv.base)
	if err != nil {
		return nil, err
	}
	replies := make([]reply, len(reqs))
	var walls []float64
	for pass, i := 0, 0; pass < p.passes; pass++ {
		runtime.GC()
		start := time.Now()
		for ; i < len(reqs) && reqs[i].pass == pass; i++ {
			replies[i] = post(client, srv.base+"/run", keys[reqs[i].key].body)
		}
		walls = append(walls, time.Since(start).Seconds())
	}
	after, err := scrape(client, srv.base)
	if err != nil {
		return nil, err
	}
	rss, err := srv.stop()
	if err != nil {
		return nil, err
	}

	served := checkReplies(out, keys, reqs, replies, groups)
	checkMetrics(out, reqs, before, after)
	sampleCheck(out, keys, served, newRand(o.seed^0xc0ffee))

	lat := make([][]float64, len(kindNames))
	var all []float64
	for i, r := range replies {
		lat[reqs[i].want] = append(lat[reqs[i].want], r.latency)
		all = append(all, r.latency)
	}
	out.set("wall_s", "s", median(walls))
	out.set("setup_s", "s", median(setups))
	out.set("peak_rss_mb", "MB", rss)
	geo, worst := pcbyRatios(baseResults(keys, served))
	out.set("pcby_vs_best", "ratio", geo)
	out.set("pcby_worst_vs_best", "ratio", worst)
	out.info["passes"] = len(walls)
	out.info["pass_wall_s"] = walls
	out.info["setup_times_s"] = setups
	latency := map[string]any{"all": latencySummary(all)}
	share := make(map[string]float64)
	for k, xs := range lat {
		share[kindNames[k]] = ratio(sum(xs), sum(all))
		p99, _ := percentile(xs, 99)
		out.set("micached."+kindNames[k]+"_p50_ms", "ms", median(xs)*1e3)
		out.set("micached."+kindNames[k]+"_p99_ms", "ms", p99*1e3)
		latency[kindNames[k]] = latencySummary(xs)
	}
	out.info["request_latency"] = latency
	out.info["outcome_time_share"] = share

	if o.trace {
		if err := traceService(out, keys, reqs, served, before, after, work, o); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// populate simulates one cell per key group in-process and writes its
// snapshot to a fresh persistent store in dir under every
// pre-populated key of the group, returning the snapshot of each group.
// This is fixture preparation: it is neither timed nor part of setup.
func populate(keys []svcKey, dir string) (map[int]stats.Snapshot, error) {
	st, err := persist.Open(dir, persist.Options{Fsync: storeFsync})
	if err != nil {
		return nil, err
	}
	pool := core.NewSystemPool(core.DefaultConfig())
	out := make(map[int]stats.Snapshot)
	for _, k := range keys {
		if k.role != diskHit {
			continue
		}
		snap, ok := out[k.group]
		if !ok {
			sys, err := pool.Get(k.v)
			if err != nil {
				st.Close()
				return nil, err
			}
			snap, err = sys.Run(k.spec.Build(workloads.Scale(k.scale)))
			if err != nil {
				st.Close()
				return nil, fmt.Errorf("populating %s/%s@%g: %w", k.spec.Name, k.v.Label, k.scale, err)
			}
			pool.Put(sys)
			out[k.group] = snap
		}
		if err := st.Put(k.key, snap); err != nil {
			st.Close()
			return nil, err
		}
	}
	return out, st.Close()
}

// child is a running micached process.
type child struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	err    error // cmd.Wait's result, valid once exited is closed
}

// readyPoll is how often startMicached asks whether the server is ready.
const readyPoll = 5 * time.Millisecond

// startMicached starts micached over dir on a free loopback port and
// returns once /readyz answers 200, with the seconds from exec to then.
func startMicached(bin, dir string, entries int, log io.Writer) (*child, float64, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin)
	cmd.Env = append(os.Environ(),
		"MICACHED_ADDR="+addr,
		"MICACHED_CACHE_DIR="+dir,
		"MICACHED_CACHE_ENTRIES="+strconv.Itoa(entries),
		"MICACHED_CACHE_BYTES=0",
		"MICACHED_CACHE_FSYNC="+map[bool]string{true: "always", false: "never"}[storeFsync],
		"MICACHED_WORKERS=1",
		"GOMAXPROCS=1",
	)
	cmd.Stdout, cmd.Stderr = log, log
	// If the benchmark itself is killed, take the server down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting micached: %w", err)
	}
	c := &child{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	go func() {
		c.err = cmd.Wait()
		close(c.exited)
	}()
	// Poll over one kept-alive connection, and not too often: the server
	// answers while it rebuilds its index, on the same CPU.
	probe := &http.Client{Transport: &http.Transport{Proxy: nil, MaxIdleConnsPerHost: 1}, Timeout: time.Second}
	defer probe.CloseIdleConnections()
	deadline := start.Add(60 * time.Second)
	for {
		resp, err := probe.Get(c.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, time.Since(start).Seconds(), nil
			}
		}
		select {
		case <-c.exited:
			return nil, 0, fmt.Errorf("micached exited before ready: %v", c.err)
		case <-time.After(readyPoll):
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, 0, errors.New("micached not ready after 60s")
		}
	}
}

// stop sends SIGTERM, waits for the drain (killing after 30 s), and
// returns the child's peak resident set in MiB. Stopping twice is
// harmless.
func (c *child) stop() (float64, error) {
	select {
	case <-c.exited:
	default:
		_ = c.cmd.Process.Signal(syscall.SIGTERM) // an exit racing the signal is caught by Wait
		select {
		case <-c.exited:
		case <-time.After(30 * time.Second):
			_ = c.cmd.Process.Kill()
			<-c.exited
			return 0, errors.New("micached did not drain within 30s")
		}
	}
	if c.err != nil {
		return 0, fmt.Errorf("micached: %w", c.err)
	}
	ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, errors.New("no rusage for micached")
	}
	return float64(ru.Maxrss) / 1024, nil
}

// post sends one /run request and reads the whole reply.
func post(client *http.Client, url string, body []byte) reply {
	start := time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{latency: time.Since(start).Seconds()}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := reply{status: resp.StatusCode, cache: resp.Header.Get("X-Micached-Cache"), body: data,
		latency: time.Since(start).Seconds()}
	if err != nil {
		r.status = 0
	}
	return r
}

// scrape reads micached's /metrics into a name → value map.
func scrape(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	m := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err == nil {
			m[name] = v
		}
	}
	return m, sc.Err()
}

// checkReplies checks every reply and returns the snapshot served for
// each key. A reply fails when its status is not 200, its cache header
// contradicts the predicted outcome, its snapshot differs from the
// first one served for the key, a hit's bytes differ from the first
// hit's, or the snapshot differs from the one populated for its group:
// a disk hit must return what was written, and a miss must simulate
// what its twins were populated with.
func checkReplies(out *outcome, keys []svcKey, reqs []svcRequest, replies []reply,
	groups map[int]stats.Snapshot) map[int]stats.Snapshot {
	type decoded struct {
		Workload string          `json:"workload"`
		Variant  string          `json:"variant"`
		Snapshot json.RawMessage `json:"snapshot"`
	}
	firstSnap := make(map[int][]byte)
	firstHit := make(map[int][]byte)
	served := make(map[int]stats.Snapshot)
	out.attempted += len(reqs)
	bad := 0
	for i, r := range replies {
		q := reqs[i]
		k := keys[q.key]
		wantHeader := "hit"
		if q.want == miss {
			wantHeader = "miss"
		}
		var d decoded
		ok := r.status == http.StatusOK && r.cache == wantHeader &&
			json.Unmarshal(r.body, &d) == nil && d.Workload == k.spec.Name && d.Variant == k.v.Label
		if ok {
			if prev, seen := firstSnap[q.key]; seen {
				ok = bytes.Equal(prev, d.Snapshot)
			} else {
				firstSnap[q.key] = d.Snapshot
				var snap stats.Snapshot
				ok = json.Unmarshal(d.Snapshot, &snap) == nil
				served[q.key] = snap
				if want, pre := groups[k.group]; pre {
					ok = ok && snap.Equal(want)
				}
			}
		}
		if ok && q.want != miss {
			if prev, seen := firstHit[q.key]; seen {
				ok = bytes.Equal(prev, r.body)
			} else {
				firstHit[q.key] = r.body
			}
		}
		if !ok {
			bad++
			if bad <= 3 {
				out.fail(0, "request %d (%s/%s@%g, want %s): HTTP %d cache=%q body %.120q",
					i, k.spec.Name, k.v.Label, k.scale, kindNames[q.want], r.status, r.cache, r.body)
			}
		}
	}
	if bad > 0 {
		out.fail(bad, "%d of %d replies failed their checks", bad, len(reqs))
	}
	return served
}

// checkMetrics compares micached's own counters, before and after the
// stream, with the seeded prediction of every request's outcome.
func checkMetrics(out *outcome, reqs []svcRequest, before, after map[string]float64) {
	var n [3]float64
	for _, q := range reqs {
		n[q.want]++
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	want := []struct {
		name string
		got  float64
		want float64
	}{
		{"micached_cache_hits_total", delta("micached_cache_hits_total"), n[memHit] + n[diskHit]},
		{"micached_cache_misses_total", delta("micached_cache_misses_total"), n[miss]},
		{"micached_disk_hits_total", delta("micached_disk_hits_total"), n[diskHit]},
		{"micached_persist_writes_total", delta("micached_persist_writes_total"), n[miss]},
		{"micached_persist_corrupt_total", after["micached_persist_corrupt_total"], 0},
		{"micached_errors_total", delta("micached_errors_total"), 0},
		{"micached_refused_total", delta("micached_refused_total"), 0},
	}
	out.attempted += len(want)
	for _, w := range want {
		if _, ok := after[w.name]; !ok || w.got != w.want {
			out.fail(1, "/metrics %s: got %g, predicted %g", w.name, w.got, w.want)
		}
	}
}

// sampleCheck re-simulates one seed-chosen missed key per (workload,
// variant) in-process on a fresh system; the service must have served
// exactly that snapshot.
func sampleCheck(out *outcome, keys []svcKey, served map[int]stats.Snapshot, rng *rand.Rand) {
	byCell := make(map[string][]int)
	var order []string
	for i, k := range keys {
		if k.role != miss {
			continue
		}
		c := k.spec.Name + "/" + k.v.Label
		if byCell[c] == nil {
			order = append(order, c)
		}
		byCell[c] = append(byCell[c], i)
	}
	cfg := core.DefaultConfig()
	for _, c := range order {
		i := byCell[c][rng.IntN(len(byCell[c]))]
		k := keys[i]
		out.attempted++
		r, err := core.RunOne(cfg, k.v, k.spec, workloads.Scale(k.scale))
		got, ok := served[i]
		if err != nil || !ok || !r.Snap.Equal(got) {
			out.fail(1, "sample %s@%g: served snapshot differs from an in-process run (err %v)", c, k.scale, err)
		}
	}
	out.info["sample_checks"] = len(order)
}

// baseResults returns the served result of every base-scale key, one
// pseudo-workload per (workload, scale), for the PCby ratios.
func baseResults(keys []svcKey, served map[int]stats.Snapshot) []core.Result {
	var rs []core.Result
	for i, k := range keys {
		if snap, ok := served[i]; ok && k.base {
			rs = append(rs, core.Result{Workload: k.spec.Name + "@" + stats.KeyFloat(k.scale), Variant: k.v.Label, Snap: snap})
		}
	}
	return rs
}

// tracedMisses caps the missed cells traceService re-runs in-process.
const tracedMisses = 1200

// traceService measures the layers behind the service in-process: the
// stream's first misses run cell by cell, each block plain and then with
// spans and the CPU profiler on (pairedCells); the first pass's keys
// then go through the store phase. Outcome counters come from
// micached's /metrics.
func traceService(out *outcome, keys []svcKey, reqs []svcRequest,
	served map[int]stats.Snapshot, before, after map[string]float64, work string, o options) error {
	var cells []cellSpec
	var missKeys, passKeys []int
	for _, q := range reqs {
		if q.pass == 0 && q.want != memHit {
			passKeys = append(passKeys, q.key)
		}
		if q.want == miss && len(missKeys) < tracedMisses {
			k := keys[q.key]
			missKeys = append(missKeys, q.key)
			cells = append(cells, cellSpec{k.spec, k.v, workloads.Scale(k.scale)})
		}
	}
	pool, err := warmPool(core.DefaultConfig(), core.AllVariants())
	if err != nil {
		return err
	}
	tr := newTracer()
	runtime.GC()
	root := tr.begin("misses", 0)
	ph, err := pairedCells(out, tr, root, pool, cells, 100)
	tr.end(root)
	if err != nil {
		return err
	}
	setTraceMetrics(out, tr, ph)
	for n, c := range ph.plain {
		if got, ok := served[missKeys[n]]; !ok || !got.Equal(c.Snap) {
			out.fail(1, "in-process %s/%s differs from the served snapshot", c.Workload, c.Variant)
		}
	}

	entries := make([]storeEntry, 0, len(passKeys))
	for _, i := range passKeys {
		entries = append(entries, storeEntry{key: keys[i].key, snap: served[i]})
	}
	sc, err := storePhase(out, tr, entries, filepath.Join(work, "store"))
	if err != nil {
		return err
	}
	delta := func(name string) uint64 { return uint64(after[name] - before[name]) }
	sc.rcHits, sc.rcMisses = delta("micached_cache_hits_total"), delta("micached_cache_misses_total")
	sc.diskHits, sc.writes = delta("micached_disk_hits_total"), delta("micached_persist_writes_total")
	sc.corrupt = uint64(after["micached_persist_corrupt_total"])

	setLayerMetrics(out, tr, ph, pool)
	setStoreMetrics(out, tr, sc)
	inProc := (out.metrics["resultcache.get_us"].Value + out.metrics["stats.encode_us"].Value) / 1e3
	out.set("micached.overhead_ms", "ms", out.metrics["micached.mem_hit_p50_ms"].Value-inProc)
	path, err := o.resultPath(fmt.Sprintf("service-mix-seed%d-spans.json", o.seed))
	if err != nil {
		return err
	}
	return tr.write(path)
}
