package core

import (
	"reflect"
	"testing"

	"repro/internal/gpu"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// smallSpecs picks a few cheap workloads so the parallel tests stay fast.
func smallSpecs(t *testing.T, names ...string) []workloads.Spec {
	t.Helper()
	specs := make([]workloads.Spec, 0, len(names))
	for _, n := range names {
		s, err := workloads.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	return specs
}

// TestRunMatrixParallelDeterminism is the contract of the worker-pool
// matrix: any worker count must return results identical in order and
// content to the sequential (Workers=1) path. Snapshots are plain data,
// so reflect.DeepEqual compares every counter of every cell.
func TestRunMatrixParallelDeterminism(t *testing.T) {
	cfg := testConfig()
	specs := smallSpecs(t, "FwSoft", "BwSoft", "FwAct")
	vs := StaticVariants()

	seq, err := RunMatrixWith(cfg, vs, specs, testScale, RunMatrixOpts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(specs)*len(vs) {
		t.Fatalf("sequential matrix has %d cells, want %d", len(seq), len(specs)*len(vs))
	}

	for _, workers := range []int{2, 4, 7} {
		par, err := RunMatrixWith(cfg, vs, specs, testScale, RunMatrixOpts{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(seq) {
			t.Fatalf("Workers=%d returned %d cells, want %d", workers, len(par), len(seq))
		}
		for i := range seq {
			if par[i].Workload != seq[i].Workload || par[i].Variant != seq[i].Variant {
				t.Fatalf("Workers=%d cell %d is %s/%s, want %s/%s (order not deterministic)",
					workers, i, par[i].Workload, par[i].Variant, seq[i].Workload, seq[i].Variant)
			}
			if !reflect.DeepEqual(par[i], seq[i]) {
				t.Fatalf("Workers=%d cell %d (%s/%s) differs from sequential run:\npar: %+v\nseq: %+v",
					workers, i, par[i].Workload, par[i].Variant, par[i], seq[i])
			}
		}
	}
}

// TestRunMatrixDefaultMatchesSequential pins the public RunMatrix (which
// parallelizes by default) to the sequential reference.
func TestRunMatrixDefaultMatchesSequential(t *testing.T) {
	cfg := testConfig()
	specs := smallSpecs(t, "FwSoft")
	vs := StaticVariants()

	seq, err := RunMatrixWith(cfg, vs, specs, testScale, RunMatrixOpts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	def, err := RunMatrix(cfg, vs, specs, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def, seq) {
		t.Fatal("default RunMatrix differs from Workers=1 reference")
	}
}

// TestRunMatrixParallelFirstError asserts every worker count reports
// the same (first-in-cell-order) error as a single worker.
func TestRunMatrixParallelFirstError(t *testing.T) {
	bad := testConfig()
	bad.GPUClockMHz = 0
	specs := smallSpecs(t, "FwSoft", "BwSoft")
	vs := StaticVariants()

	_, seqErr := RunMatrixWith(bad, vs, specs, testScale, RunMatrixOpts{Workers: 1})
	if seqErr == nil {
		t.Fatal("invalid config must error")
	}
	for _, workers := range []int{1, 2, 4} {
		res, err := RunMatrixWith(bad, vs, specs, testScale, RunMatrixOpts{Workers: workers})
		if err == nil {
			t.Fatalf("Workers=%d: invalid config must error", workers)
		}
		if res != nil {
			t.Fatalf("Workers=%d: failed matrix must not return partial results", workers)
		}
		if err.Error() != seqErr.Error() {
			t.Fatalf("Workers=%d: error %q differs from Workers=1 %q", workers, err, seqErr)
		}
	}
}

// TestRunMatrixSingleWorkerStopsAtFailure pins that a Workers=1 matrix
// runs its cells in order and starts none after the first failing one:
// the second of four cells panics in Build, and the later two are
// neither looked up nor built.
func TestRunMatrixSingleWorkerStopsAtFailure(t *testing.T) {
	base, err := workloads.ByName("FwSoft")
	if err != nil {
		t.Fatal(err)
	}
	var lookups, builds []string
	spec := func(name string, broken bool) workloads.Spec {
		return workloads.Spec{Name: name, Class: base.Class, Build: func(s workloads.Scale) workloads.Workload {
			builds = append(builds, name)
			if broken {
				panic("broken spec")
			}
			return base.Build(s)
		}}
	}
	specs := []workloads.Spec{spec("A", false), spec("B", true), spec("C", false), spec("D", false)}
	v, err := VariantByLabel("CacheR")
	if err != nil {
		t.Fatal(err)
	}

	func() {
		defer func() {
			cp, ok := recover().(CellPanic)
			if !ok || cp.Workload != "B" {
				t.Fatalf("recovered %#v, want CellPanic for cell B", cp)
			}
		}()
		_, _ = RunMatrixWith(testConfig(), []Variant{v}, specs, testScale, RunMatrixOpts{
			Workers: 1,
			Lookup: func(s workloads.Spec, _ Variant) (stats.Snapshot, bool) {
				lookups = append(lookups, s.Name)
				return stats.Snapshot{}, false
			},
		})
	}()
	want := []string{"A", "B"}
	if !reflect.DeepEqual(lookups, want) {
		t.Fatalf("looked up %v, want %v", lookups, want)
	}
	if !reflect.DeepEqual(builds, want) {
		t.Fatalf("built %v, want %v", builds, want)
	}
}

// TestRunMatrixParallelPanicPropagates asserts a panicking cell (e.g. a
// deadlock diagnostic) reaches the calling goroutine under any worker
// count, so callers' recover() works the same as on the sequential path.
func TestRunMatrixParallelPanicPropagates(t *testing.T) {
	badSpec := workloads.Spec{
		Name: "Broken",
		Build: func(s workloads.Scale) workloads.Workload {
			// A malformed kernel makes gpu.launch panic mid-cell.
			return workloads.Workload{Name: "Broken", Kernels: []gpu.Kernel{{Name: "bad"}}}
		},
	}
	for _, workers := range []int{1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Workers=%d: cell panic did not propagate to the caller", workers)
				}
			}()
			_, _ = RunMatrixWith(testConfig(), StaticVariants(), []workloads.Spec{badSpec},
				testScale, RunMatrixOpts{Workers: workers})
		}()
	}
}

// TestRunMatrixProgress checks the progress callback counts every cell
// exactly once, monotonically, for one worker and for several.
func TestRunMatrixProgress(t *testing.T) {
	cfg := testConfig()
	specs := smallSpecs(t, "FwSoft")
	vs := StaticVariants()
	for _, workers := range []int{1, 3} {
		var calls []int
		_, err := RunMatrixWith(cfg, vs, specs, testScale, RunMatrixOpts{
			Workers: workers,
			Progress: func(done, total int) {
				if total != len(vs) {
					t.Errorf("total = %d, want %d", total, len(vs))
				}
				calls = append(calls, done)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(calls) != len(vs) {
			t.Fatalf("Workers=%d: %d progress calls, want %d", workers, len(calls), len(vs))
		}
		for i, d := range calls {
			if d != i+1 {
				t.Fatalf("Workers=%d: progress sequence %v not monotonic", workers, calls)
			}
		}
	}
}
