// Command perfbench is the repository's benchmark: it runs one named
// workload against the simulator (internal/core and the layers under
// it) or the micached service, checks the outputs, and prints one JSON
// result line. See README.md in this directory; run it through run.sh,
// which builds it and micached from the checkout first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one workload run produced: operation counts for the
// result line, every metric it computed, and provenance details such
// as sample counts and digests.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	info              map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: make(map[string]metric), info: make(map[string]any)}
}

func (o *outcome) set(name, unit string, v float64) { o.metrics[name] = metric{Value: v, Unit: unit} }

// fail records n failed operations and why.
func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	errs, _ := o.info["check_failures"].([]string)
	if len(errs) < 20 {
		o.info["check_failures"] = append(errs, msg)
	}
}

// endToEnd and perLayer name every metric the two kinds of run print,
// with units; BENCHMARK.json lists the same names (a test pins that).
var endToEnd = []string{
	"wall_s", "setup_s", "peak_rss_mb", "pcby_vs_best", "pcby_worst_vs_best",
}

var perLayer = []string{
	"core.cell_s.p50", "core.cell_s.max", "core.cm_share", "core.pool_s",
	"core.pool_built", "core.pool_reused", "core.run_ms",
	"event.fired", "event.ns_per_event", "event.cpu_share",
	"cache.l1.hits", "cache.l1.misses", "cache.l1.bypasses", "cache.l1.stalls",
	"cache.l2.hits", "cache.l2.misses", "cache.l2.stalls",
	"cache.stall_mshr", "cache.stall_alloc", "cache.cpu_share",
	"coherence.invalidates", "coherence.writebacks",
	"policy.rinses", "policy.pred_bypass", "policy.alloc_bypass",
	"dram.reads", "dram.writes", "dram.row_hit_rate", "dram.cpu_share",
	"gpu.vector_ops", "gpu.mem_requests", "gpu.cpu_share",
	"workloads.build_s", "workloads.cpu_share",
	"noc.forwarded", "noc.stall_cycles", "noc.queue_peak", "noc.cpu_share",
	"runtime.cpu_share", "runtime.alloc_mb", "runtime.gc_cycles",
	"resultcache.get_us", "resultcache.hits", "resultcache.misses",
	"persist.get_us", "persist.put_us", "persist.open_s",
	"persist.disk_hits", "persist.writes", "persist.corrupt",
	"stats.encode_us",
	"micached.overhead_ms",
	"micached.mem_hit_p50_ms", "micached.mem_hit_p99_ms",
	"micached.disk_hit_p50_ms", "micached.disk_hit_p99_ms",
	"micached.miss_p50_ms", "micached.miss_p99_ms",
	"trace.overhead_s", "trace.span_s", "trace.profiler_s",
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"paper-sweep", "mesh-sweep", "service-mix"}

// options is the parsed command line plus the directories a run uses.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	micached string // path of the micached binary (service-mix)
	outDir   string // scratch and result files, inside the checkout
}

// resultPath returns the path of a result file, creating its directory.
func (o options) resultPath(name string) (string, error) {
	dir := filepath.Join(o.outDir, "results")
	return filepath.Join(dir, name), os.MkdirAll(dir, 0o755)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var seed int64
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 22, "target length of the timed phase")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run printing per-layer metrics")
	fs.StringVar(&o.micached, "micached", ".bench_build/bin/micached", "micached binary")
	fs.StringVar(&o.outDir, "out", ".bench_build", "directory for scratch and result files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloadNames, o.workload) || o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {%s}, --seconds >= 1, --trace 0|1\n",
			strings.Join(workloadNames, "|"))
		return 2
	}
	o.seed, o.trace = uint64(seed), traceFlag == 1
	// Nothing in a timed phase runs in parallel, and one P keeps the
	// runtime's background GC workers and idle threads from contending
	// with the measured work for the host's CPUs. micached gets the
	// same setting: one closed-loop connection never has two requests
	// in flight.
	runtime.GOMAXPROCS(1)

	var out *outcome
	var err error
	switch o.workload {
	case "paper-sweep":
		out, err = runSweep(paperSweep(o.seconds), o)
	case "mesh-sweep":
		out, err = runSweep(meshSweep(o.seconds), o)
	case "service-mix":
		out, err = runService(serviceMix(o.seconds), o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	names := endToEnd
	if o.trace {
		names = perLayer
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: make(map[string]metric, len(names))}
	for _, n := range names {
		m, ok := out.metrics[n]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: internal error: metric %s not computed\n", n)
			return 1
		}
		res.Metrics[n] = m
	}
	prov := provenance(o)
	for k, v := range out.info {
		prov[k] = v
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	full, err := json.MarshalIndent(map[string]any{"provenance": prov, "result": res, "all_metrics": out.metrics}, "", "  ")
	if err == nil {
		var path string
		path, err = o.resultPath(fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, traceFlag))
		if err == nil {
			err = os.WriteFile(path, full, 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing result file:", err)
	}
	provLine, _ := json.Marshal(map[string]any{"provenance": prov})
	fmt.Fprintf(stdout, "%s\n%s\n", provLine, line)
	if !res.Correct {
		return 1
	}
	return 0
}

// provenance describes where and on what a result was measured.
func provenance(o options) map[string]any {
	model, nproc := cpuInfo()
	return map[string]any{
		"workload":    o.workload,
		"seed":        o.seed,
		"seconds":     o.seconds,
		"trace":       o.trace,
		"cpu_model":   model,
		"nproc":       nproc,
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"cpus":        procStatus("Cpus_allowed_list"),
		"go_version":  runtime.Version(),
		"commit":      os.Getenv("PERFBENCH_COMMIT"),
		"source_hash": os.Getenv("PERFBENCH_SOURCE_HASH"),
		"sim_version": core.SimVersion,
		"time":        time.Now().UTC().Format(time.RFC3339),
	}
}

// procStatus returns a field of /proc/self/status, such as the CPUs the
// process may run on.
func procStatus(field string) string {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && k == field {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuInfo returns the first "model name" of /proc/cpuinfo and the
// number of processors it lists: the host's, where runtime.NumCPU
// counts only the CPUs this process is pinned to.
func cpuInfo() (model string, n int) {
	model = "unknown"
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return model, runtime.NumCPU()
	}
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ":")
		switch k = strings.TrimSpace(k); {
		case ok && k == "processor":
			n++
		case ok && k == "model name" && model == "unknown":
			model = strings.TrimSpace(v)
		}
	}
	return model, n
}

// newRand returns the run's input generator; the same seed always
// yields the same inputs.
func newRand(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0x5eed)) }

// peakRSSMB returns this process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// passes converts the requested run length into a whole number of
// identical passes, given the nominal length of one pass on the
// reference host. The count depends only on the arguments, so every
// run with the same --seconds does the same work on any host.
func passes(seconds int, nominal float64) int {
	return max(1, int(float64(seconds)/nominal+0.5))
}
