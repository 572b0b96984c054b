package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workloads"
)

func TestServiceStreamDeterministic(t *testing.T) {
	p := serviceMix(1)
	p.passes, p.scalesPerPass, p.memHitsPerPass = 2, 2, 50
	k1, r1 := serviceStream(p, 7)
	k2, r2 := serviceStream(p, 7)
	if !slices.Equal(r1, r2) || len(k1) != len(k2) {
		t.Fatal("same seed gave different streams")
	}
	for i := range k1 {
		if k1[i].key != k2[i].key || k1[i].role != k2[i].role {
			t.Fatalf("key %d differs between identical seeds", i)
		}
	}
	_, r3 := serviceStream(p, 8)
	if slices.Equal(r1, r3) {
		t.Fatal("different seeds gave the same stream")
	}

	// Every pass has the same outcome counts, a repeat only ever names
	// a key touched before it, and no key is first-touched twice.
	perPass := p.scalesPerPass * len(p.specs) * len(core.AllVariants())
	counts := make([][3]int, p.passes)
	touched := map[int]bool{}
	for i, q := range r1 {
		counts[q.pass][q.want]++
		switch {
		case q.want == memHit && !touched[q.key]:
			t.Fatalf("request %d repeats untouched key %d", i, q.key)
		case q.want != memHit && touched[q.key]:
			t.Fatalf("request %d first-touches key %d twice", i, q.key)
		case q.want != memHit && q.want != k1[q.key].role:
			t.Fatalf("request %d predicts %v for a key with role %v", i, q.want, k1[q.key].role)
		}
		touched[q.key] = true
	}
	want := [3]int{p.memHitsPerPass, perPass * (p.groupSize - 1), perPass}
	for pass, c := range counts {
		if c != want {
			t.Fatalf("pass %d outcome counts %v, want %v", pass, c, want)
		}
	}
	seen := map[string]bool{}
	for _, k := range k1 {
		if seen[k.key] {
			t.Fatalf("duplicate key %s", k.key)
		}
		seen[k.key] = true
	}
}

func TestTwinsBuildTheSameWork(t *testing.T) {
	p := serviceMix(20)
	keys, _ := serviceStream(p, 1)
	for i, k := range keys {
		g := keys[k.group]
		wk, wg := k.spec.Build(workloads.Scale(k.scale)), g.spec.Build(workloads.Scale(g.scale))
		if k.spec.Name != g.spec.Name || k.v.Label != g.v.Label || (i != k.group && k.key == g.key) ||
			wk.FootprintBytes != wg.FootprintBytes || len(wk.Kernels) != len(wg.Kernels) {
			t.Fatalf("%s@%g and its group's first key @%g build different work", k.spec.Name, k.scale, g.scale)
		}
	}
	// One miss per group, and the seed decides which member it is.
	misses := map[int]int{}
	for _, k := range keys {
		if k.role == miss {
			misses[k.group]++
		}
	}
	for g, n := range misses {
		if n != 1 {
			t.Fatalf("group %d has %d misses", g, n)
		}
	}
	if len(misses)*p.groupSize != len(keys) {
		t.Fatalf("%d groups with a miss for %d keys", len(misses), len(keys))
	}
}

func TestCellOrderDeterministic(t *testing.T) {
	p := paperSweep(20)
	s1, v1 := cellOrder(p.specs, newRand(3))
	s2, v2 := cellOrder(p.specs, newRand(3))
	names := func(ss []workloads.Spec) (out []string) {
		for _, s := range ss {
			out = append(out, s.Name)
		}
		return out
	}
	labels := func(vs []core.Variant) (out []string) {
		for _, v := range vs {
			out = append(out, v.Label)
		}
		return out
	}
	if !slices.Equal(names(s1), names(s2)) || !slices.Equal(labels(v1), labels(v2)) {
		t.Fatal("same seed gave different cell orders")
	}
	s3, _ := cellOrder(p.specs, newRand(4))
	if slices.Equal(names(s1), names(s3)) {
		t.Fatal("different seeds gave the same cell order")
	}
	if got := names(s1); len(got) != 17 || !slices.Contains(got, "CM") {
		t.Fatalf("paper-sweep order lost workloads: %v", got)
	}
}

func TestPercentileTenBeyondRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	if v, ok := percentile(seq(1000), 99); !ok || v != 990 {
		t.Fatalf("p99 of 1000 = %v, %v; want 990 with 10 beyond", v, ok)
	}
	if _, ok := percentile(seq(999), 99); ok {
		t.Fatal("p99 of 999 samples has only 9 beyond it")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

// benchmarkJSON reads the repository's BENCHMARK.json.
func benchmarkJSON(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	var e2e, layer, wls []string
	for _, m := range bj.EndToEnd {
		units[m.Name], e2e = m.Unit, append(e2e, m.Name)
	}
	for _, m := range bj.PerLayer {
		units[m.Name], layer = m.Unit, append(layer, m.Name)
	}
	for _, w := range bj.Workloads {
		wls = append(wls, w.Name)
	}
	if !slices.Equal(e2e, endToEnd) || !slices.Equal(layer, perLayer) || !slices.Equal(wls, workloadNames) {
		t.Fatal("BENCHMARK.json names differ from the metrics and workloads the benchmark emits")
	}
	return units
}

func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, n := range slices.Concat(endToEnd, perLayer, workloadNames) {
		if !valid.MatchString(n) || seen[n] {
			t.Errorf("bad or duplicate name %q", n)
		}
		seen[n] = true
	}
	benchmarkJSON(t)
}

// checkOutcome asserts a smoke run passed its checks and computed every
// metric its kind of run prints, with the unit BENCHMARK.json gives it.
func checkOutcome(t *testing.T, out *outcome, traced bool, units map[string]string) {
	t.Helper()
	if out.failed != 0 || out.attempted == 0 {
		t.Fatalf("attempted %d, failed %d: %v", out.attempted, out.failed, out.info["check_failures"])
	}
	names := endToEnd
	if traced {
		names = perLayer
	}
	for _, n := range names {
		m, ok := out.metrics[n]
		if !ok || m.Unit != units[n] {
			t.Errorf("metric %s: computed %v, unit %q, want unit %q", n, ok, m.Unit, units[n])
		}
		if !traced && m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", n, m.Value)
		}
	}
}

func TestSweepSmoke(t *testing.T) {
	units := benchmarkJSON(t)
	for _, p := range []sweepParams{paperSweep(1), meshSweep(1)} {
		t.Run(p.name, func(t *testing.T) {
			var specs []workloads.Spec
			for _, s := range p.specs {
				if s.Name == "FwSoft" || s.Name == "BwBN" || s.Name == "SGEMM" {
					specs = append(specs, s)
				}
			}
			p.specs, p.scale, p.passes, p.setupReps = specs, 0.005, 2, 2
			for _, traced := range []bool{false, true} {
				out, err := runSweep(p, options{seed: 1, trace: traced, outDir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				checkOutcome(t, out, traced, units)
				if traced && p.name == "mesh-sweep" && out.metrics["noc.forwarded"].Value == 0 {
					t.Error("mesh sweep forwarded nothing over the NoC")
				}
			}
		})
	}
}

func TestServiceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs micached")
	}
	units := benchmarkJSON(t)
	dir := t.TempDir()
	bin := filepath.Join(dir, "micached")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/micached").CombinedOutput(); err != nil {
		t.Fatalf("building micached: %v\n%s", err, out)
	}
	p := serviceMix(1)
	p.specs = p.specs[:2]
	p.passes, p.scalesPerPass, p.memHitsPerPass, p.setupReps = 2, 1, 30, 2
	for _, traced := range []bool{false, true} {
		out, err := runService(p, options{seed: 1, trace: traced, micached: bin, outDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		checkOutcome(t, out, traced, units)
	}
}

func TestFlatShares(t *testing.T) {
	prof := newCPUProfile()
	err := prof.run(func() error {
		x := 1
		for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
			for i := 0; i < 1<<20; i++ {
				x = x*31 + i
			}
		}
		sink = x
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	shares := prof.shares()
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if sum < 0.99 || sum > 1.01 || shares["repro/perfbench"] < 0.5 {
		t.Fatalf("shares %v: want a sum of 1 with most in this package", shares)
	}
	if got := funcPackage("repro/internal/cache.(*Cache).Access"); got != "repro/internal/cache" {
		t.Fatalf("funcPackage = %q", got)
	}
}

var sink int

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper-sweep", "--trace", "2"},
		{"--workload", "paper-sweep", "--seconds", "0"},
	} {
		var out bytes.Buffer
		if code := run(args, &out); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, printed %q", args, code, out.String())
		}
	}
}
