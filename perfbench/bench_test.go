package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"armada"
)

// small shrinks a workload so a test can run it in well under a second;
// its op mix, distributions and options stay those of the benchmark.
func small(t *testing.T, name string) spec {
	t.Helper()
	s, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	s.peers /= 10
	s.objects /= 20
	if s.auditSample > 0 {
		s.auditSample = 64
	}
	return s
}

func smallRun(t *testing.T, s spec, seed int64, trace bool, hook func(armada.Hop)) *outcome {
	t.Helper()
	out, err := run(config{spec: s, seed: seed, seconds: 0.4, trace: trace, setups: 1, outDir: t.TempDir(), hopHook: hook})
	if err != nil {
		t.Fatalf("%s seed %d: %v", s.name, seed, err)
	}
	return out
}

func asRecord(s spec, seed int64, out *outcome) record {
	return record{Workload: s.name, Env: stamp(seed), result: out.result(false)}
}

// TestShortRunsVerify runs every workload briefly, untraced and traced:
// each run must pass its correctness check (model, audit, delay bound),
// fail no operation, and report every metric BENCHMARK.json names for its
// mode with a finite value.
func TestShortRunsVerify(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			s := small(t, w.name)
			out := smallRun(t, s, 3, trace, nil)
			if !out.correct {
				t.Errorf("%s trace=%v: verification failed: %v", s.name, trace, out.problems)
			}
			if out.failed != 0 || out.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed", s.name, trace, out.failed, out.attempted)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			res := out.result(trace)
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics reported, want %d", s.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := out.metrics[d.name]
				if mv := res.Metrics[d.name]; !ok || mv.Unit != d.unit || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s trace=%v: metric %s = %v %q, %v", s.name, trace, d.name, v, mv.Unit, ok)
				}
			}
			if !trace {
				for _, name := range []string{"throughput_ops_s", "objects_per_s", "read_p50_ms", "read_p99_ms",
					"write_p50_ms", "write_p99_ms", "cpu_us_per_op", "msgs_per_read", "hops_per_read",
					"worst_delay_frac", "success_rate", "setup_s", "heap_live_mb"} {
					if out.metrics[name] <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", s.name, name, out.metrics[name])
					}
				}
				if f := out.metrics["worst_delay_frac"]; f >= 1 {
					t.Errorf("%s: worst delay is %.2f of the 2·log₂N bound", s.name, f)
				}
			}
		}
	}
}

// TestRunOutputContract checks the two lines a run prints: a run record
// with the environment stamp, then a result with exactly the keys the
// benchmark contract names and every metric carrying its unit.
func TestRunOutputContract(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := runMain([]string{"--workload", "nope", "--seed", "1"}, &stdout, &stderr)
	if code == 0 || stdout.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, stdout.String())
	}
	stdout.Reset()
	code = runMain([]string{"--workload", "route", "--seed", "2", "--seconds", "1", "--trace", "0"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2", len(lines))
	}
	var rec map[string]record
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil || rec["run"].Workload != "route" {
		t.Fatalf("run record %q: %v", lines[0], err)
	}
	if env := rec["run"].Env; env.Seed != 2 || env.GOMAXPROCS < 1 || env.NumCPU < 1 || env.GoVersion == "" || env.GOGC == "" || env.Commit == "" {
		t.Errorf("environment stamp %+v incomplete", env)
	}
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[1]), &last); err != nil {
		t.Fatal(err)
	}
	if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Errorf("result keys %v, want exactly correct, attempted, failed, metrics", keys(last))
	}
	var res result
	if err := json.Unmarshal([]byte(lines[1]), &res); err != nil {
		t.Fatal(err)
	}
	for _, d := range endToEnd {
		if mv, ok := res.Metrics[d.name]; !ok || mv.Unit != d.unit {
			t.Errorf("metric %s = %+v, want unit %s", d.name, mv, d.unit)
		}
	}
}

func keys(m map[string]json.RawMessage) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestBenchmarkFileMatchesTables keeps BENCHMARK.json and the driver's
// metric and workload tables in step.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	got := keys(top)
	sort.Strings(got)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json has keys %v, want %v", got, want)
	}
	var b struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		benchFile
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the driver", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why == "" {
			t.Errorf("workload %d: %q, driver has %q", i, w.Name, workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d/%d metrics, driver %d/%d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %d: %+v, driver %+v", i, m, d)
		}
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || d.moves == "" || d.on == "" {
			t.Errorf("per_layer %d: %+v, driver %+v", i, m, d)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q1, med, q3)
	}
}

func TestVerdictRules(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	lower := rule{unit: "ms", better: "lower", bound: 0.25}
	cases := []struct {
		name         string
		base, change []float64
		r            rule
		want         string
	}{
		{"gain", steady, scaled(0.8), lower, improved},
		{"regression beyond bound", steady, scaled(1.3), lower, regressed},
		{"worse within bound", steady, scaled(1.1), lower, unchanged},
		{"same", steady, steady, lower, unchanged},
		{"higher is better", steady, scaled(0.7), rule{unit: "1/s", better: "higher", bound: 0.25}, regressed},
		{"spread wider than bound", []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}, scaled(1.05), lower, unresolved},
		{"wide spread, every run better", []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}, scaled(0.5), lower, improved},
		{"wide spread, every run worse", []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}, scaled(1.5), lower, regressed},
		{"gain smaller than spread", []float64{90, 110, 95, 105, 100, 92, 108, 97, 103, 100}, scaled(0.97), lower, unchanged},
		{"too few pair wins", steady, []float64{80, 80, 80, 80, 80, 80, 80, 80, 120, 120}, lower, unchanged},
		{"gain on too few pairs", steady[:5], scaled(0.8)[:5], lower, unresolved},
		{"regression on few pairs", steady[:5], scaled(1.3)[:5], lower, regressed},
		{"per-layer loss", steady, scaled(1.2), rule{unit: "ns", better: "lower"}, regressed},
		{"per-layer noise", steady, []float64{101, 100, 100, 99, 101, 99, 100, 100, 100, 101}, rule{unit: "ns", better: "lower"}, unchanged},
	}
	for _, c := range cases {
		if got := verdict(c.base, c.change, c.r); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareRefusesEnvironmentMismatch(t *testing.T) {
	a := record{Workload: "route", Env: envStamp{GOMAXPROCS: 2, NumCPU: 2, GoVersion: "go1.24.0"}}
	a.Correct = true
	a.Metrics = map[string]metricValue{"read_p50_ms": {Value: 1, Unit: "ms"}}
	for _, mod := range []func(*envStamp){
		func(e *envStamp) { e.GOMAXPROCS = 1 },
		func(e *envStamp) { e.NumCPU = 1 },
		func(e *envStamp) { e.GoVersion = "go1.23.0" },
	} {
		b := a
		mod(&b.Env)
		if _, err := compareRecords([]record{a}, []record{b}, nil); err == nil {
			t.Errorf("compared %+v with %+v", a.Env, b.Env)
		}
	}
	if _, err := compareRecords([]record{a}, []record{a}, nil); err != nil {
		t.Error(err)
	}
}

// TestInjectedDeliveryDelayIsARegression injects 1 ms into every delivery
// hop through the driver's WithTrace hook and checks that the comparator
// flags scan's read_p50_ms as regressed against undisturbed runs.
func TestInjectedDeliveryDelayIsARegression(t *testing.T) {
	s := small(t, "scan")
	rules := map[string]rule{"read_p50_ms": {unit: "ms", better: "lower", bound: 0.25}}
	delay := func(h armada.Hop) {
		if h.Remaining == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	var base, change []record
	for seed := int64(1); seed <= 5; seed++ {
		base = append(base, asRecord(s, seed, smallRun(t, s, seed, false, nil)))
		change = append(change, asRecord(s, seed, smallRun(t, s, seed, false, delay)))
	}
	rows, err := compareRecords(base, change, rules)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.workload == "scan" && r.metric == "read_p50_ms" {
			if r.verdict != regressed {
				t.Errorf("read_p50_ms %v -> %v: verdict %s, want %s", r.base, r.change, r.verdict, regressed)
			}
			return
		}
	}
	t.Error("no scan read_p50_ms row")
}

func TestOpStreamsAreDeterministic(t *testing.T) {
	s := small(t, "churn-write")
	draw := func(seed int64, worker int) []op {
		st := newOpStream(s, newInputs(s, seed), seed, worker)
		var ops []op
		for range 2000 {
			o := st.next()
			st.ack(o)
			ops = append(ops, o)
		}
		return ops
	}
	a, b := draw(7, 1), draw(7, 1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs between two streams of one seed: %+v, %+v", i, a[i], b[i])
		}
	}
	c := draw(8, 1)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("seeds 7 and 8 drew the same operations")
	}
	kinds := map[opKind]int{}
	for _, o := range a {
		kinds[o.kind]++
	}
	for k, w := range s.mix {
		if got := float64(kinds[opKind(k)]) / float64(len(a)) * 100; w > 0 && math.Abs(got-float64(w)) > 4 {
			t.Errorf("%s drawn %.1f%% of the time, mix says %d%%", opKind(k), got, w)
		}
	}
}

// TestCalmSlicesDropLeastCPU checks the slice selection: the quarter of
// the slices with the least process CPU is dropped, the rest kept in time
// order, and a single-slice leg keeps its slice.
func TestCalmSlicesDropLeastCPU(t *testing.T) {
	shares := []time.Duration{19, 11, 19, 10, 18, 12, 19, 19}
	cpuAt := []time.Duration{0}
	for _, s := range shares {
		cpuAt = append(cpuAt, cpuAt[len(cpuAt)-1]+s)
	}
	if got, want := calmSlices(cpuAt), []int{0, 2, 4, 5, 6, 7}; !slices.Equal(got, want) {
		t.Errorf("calm slices %v, want %v", got, want)
	}
	if got := calmSlices([]time.Duration{0, 5}); !slices.Equal(got, []int{0}) {
		t.Errorf("calm slices of one slice %v, want [0]", got)
	}
}

// TestModelCatchesStrayObject checks the verification itself: a range
// read matches the model until the network holds an object the model
// does not.
func TestModelCatchesStrayObject(t *testing.T) {
	s := small(t, "route")
	in := newInputs(s, 5)
	net, err := armada.NewNetwork(s.peers, s.options(5)...)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range in.preload {
		if err := net.Publish(o.name, o.value); err != nil {
			t.Fatal(err)
		}
	}
	m, err := newModel([]*opStream{newOpStream(s, in, 5, 0), newOpStream(s, in, 5, 1)})
	if err != nil {
		t.Fatal(err)
	}
	check := func() error {
		res, err := net.Do(context.Background(), armada.NewRange([]armada.Range{{Low: 100, High: 300}}))
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.inRange(100, 300)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatal("empty sample range")
		}
		return same(res.Objects, want)
	}
	if err := check(); err != nil {
		t.Fatalf("fresh network disagrees with the model: %v", err)
	}
	if err := net.Publish("stray", 200); err != nil {
		t.Fatal(err)
	}
	if check() == nil {
		t.Error("a stray object went unnoticed")
	}
}
