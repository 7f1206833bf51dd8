// Command perfbench is Armada's benchmark: a closed-loop driver over the
// armada package's exported API, three workloads that each make a
// different layer dominate, and a traced run with a layer ladder that
// times each internal layer on the run's own inputs.
//
// Run one workload (the last line of standard output is the result):
//
//	bash perfbench/run.sh --workload route --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
// reports its per-layer metrics and writes the traced leg's spans to
// .bench_build/perfbench/. The line before the result is a run record
// carrying the environment stamp; collect those lines from several runs
// into a file per commit and compare two such files:
//
//	bash perfbench/run.sh compare base.jsonl change.jsonl
//
// Seeds 1 to 12, 101 to 110, 201 to 210, 301 to 310 and 90210 were used
// while the benchmark was built; seed 271828 is held out, unused, for
// confirming a claimed gain on inputs no one tuned against.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

// envStamp is the environment a run measured in.
type envStamp struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	GOGC       string `json:"gogc"`
	GOMEMLIMIT string `json:"gomemlimit"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func stamp(seed int64) envStamp {
	env := func(k string) string {
		if v := os.Getenv(k); v != "" {
			return v
		}
		return "default"
	}
	commit := os.Getenv("ARMADA_BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return envStamp{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOGC:       env("GOGC"),
		GOMEMLIMIT: env("GOMEMLIMIT"),
		Commit:     commit,
		Seed:       seed,
	}
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the run record printed before the result.
type record struct {
	Workload string                 `json:"workload"`
	Trace    int                    `json:"trace"`
	Seconds  float64                `json:"seconds"`
	Env      envStamp               `json:"env"`
	Samples  map[string]int         `json:"samples"`
	Problems []string               `json:"problems,omitempty"`
	Spans    map[string]spanSummary `json:"spans,omitempty"`
	result
}

// result is the run's reported line: every end-to-end metric, or with
// trace every per-layer metric, each with its unit — or no metrics at all
// when the run failed its correctness check.
func (o *outcome) result(trace bool) result {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	res := result{Correct: o.correct, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	if o.correct {
		for _, d := range defs {
			res.Metrics[d.name] = metricValue{Value: o.metrics[d.name], Unit: d.unit}
		}
	}
	return res
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: route, scan or churn-write")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 30, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced leg and the layer ladder and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload route|scan|churn-write, --seconds ≥ 1 and --trace 0|1 (%v)\n", err)
		return 2
	}
	cfg := config{spec: s, seed: *seed, seconds: float64(*seconds), trace: *trace == 1, setups: 5, outDir: ".bench_build/perfbench"}
	if cfg.trace {
		cfg.setups = 1 // the traced run reports no setup_s
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", s.name, err)
		return 1
	}
	res := out.result(cfg.trace)
	rec := record{Workload: s.name, Trace: *trace, Seconds: cfg.seconds, Env: stamp(*seed),
		Samples: map[string]int{"reads": out.reads, "writes": out.writes}, Problems: out.problems, Spans: out.spans, result: res}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]record{"run": rec}); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !out.correct {
		for _, p := range out.problems {
			fmt.Fprintf(stderr, "perfbench: %s: verification failed: %s\n", s.name, p)
		}
		return 1
	}
	return 0
}
