package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// benchFile is the part of BENCHMARK.json the comparator reads.
type benchFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// rule is how one metric is judged; bound is 0 for per-layer metrics,
// which the benchmark fixes no bound for.
type rule struct {
	unit, better string
	bound        float64
}

func readRules(path string) (map[string]rule, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	rules := map[string]rule{}
	for _, m := range b.EndToEnd {
		rules[m.Name] = rule{m.Unit, m.Better, m.Bound}
	}
	for _, m := range b.PerLayer {
		rules[m.Name] = rule{unit: m.Unit, better: m.Better}
	}
	return rules, nil
}

// readRecords reads the run records of a file of collected run output;
// every other line (results, logs) is skipped.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		var line struct {
			Run *record `json:"run"`
		}
		if json.Unmarshal(sc.Bytes(), &line) == nil && line.Run != nil {
			recs = append(recs, *line.Run)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no run records", path)
	}
	return recs, nil
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) does (its default, exclusive,
// method), so spreads here match the ones the benchmark is accepted on.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d) == 1 {
		return d[0], d[0], d[0]
	}
	n, m := 4, len(d)+1
	q := [3]float64{}
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), len(d)-1)
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / float64(n)
	}
	return q[0], q[1], q[2]
}

// Verdicts.
const (
	improved   = "improved"
	regressed  = "regressed"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// minPairs is the fewest parent/change pairs a gain may be claimed on.
const minPairs = 10

// verdict judges change against base, both in run order (run i of each
// side form a pair):
//   - a gain needs at least minPairs pairs, the change winning at least
//     nine tenths of them (ties count for neither), and the medians
//     differing by more than the parent's interquartile spread; the same
//     evidence short of minPairs pairs is unresolved;
//   - with a bound, the change regresses when its median is worse than the
//     parent's by more than bound × the parent's median, and the metric is
//     unresolved when the parent's own spread is wider than that — unless
//     every change run beats every parent run (a gain, given the pairs) or
//     loses to every one while regressing by the median rule;
//   - without a bound (per-layer metrics) a loss needs the evidence a gain
//     does.
func verdict(base, change []float64, r rule) string {
	b1, bm, b3 := quartiles(base)
	_, cm, _ := quartiles(change)
	better := func(x, y float64) bool {
		if r.better == "higher" {
			return x > y
		}
		return x < y
	}
	iqr, diff := b3-b1, math.Abs(cm-bm)
	wins, losses, pairs := 0, 0, min(len(base), len(change))
	for i := range pairs {
		switch {
		case better(change[i], base[i]):
			wins++
		case better(base[i], change[i]):
			losses++
		}
	}
	gain := better(cm, bm) && wins*10 >= 9*pairs && diff > iqr
	loss := better(bm, cm) && losses*10 >= 9*pairs && diff > iqr
	claim := func(v string) string {
		if pairs < minPairs {
			return unresolved
		}
		return v
	}
	if r.bound > 0 {
		limit := r.bound * math.Abs(bm)
		worse := better(bm, cm) && diff > limit
		if iqr > limit {
			switch {
			case allBetter(change, base, better):
				return claim(improved)
			case worse && allBetter(base, change, better):
				return regressed
			}
			return unresolved
		}
		if worse {
			return regressed
		}
		loss = false
	}
	switch {
	case gain:
		return claim(improved)
	case loss:
		return claim(regressed)
	}
	return unchanged
}

func allBetter(change, base []float64, better func(x, y float64) bool) bool {
	for _, c := range change {
		for _, b := range base {
			if !better(c, b) {
				return false
			}
		}
	}
	return true
}

// row is one workload × metric comparison.
type row struct {
	workload, metric, unit string
	base, change           [3]float64 // q1, median, q3
	verdict                string
}

// compareRecords compares two sets of runs metric by metric. It refuses
// sets measured on different GOMAXPROCS, CPU counts or Go versions.
func compareRecords(base, change []record, rules map[string]rule) ([]row, error) {
	ref := base[0].Env
	for _, set := range [][]record{base, change} {
		for _, r := range set {
			e := r.Env
			if e.GOMAXPROCS != ref.GOMAXPROCS || e.NumCPU != ref.NumCPU || e.GoVersion != ref.GoVersion {
				return nil, fmt.Errorf("environment mismatch: gomaxprocs %d/%d, num_cpu %d/%d, go %s/%s",
					ref.GOMAXPROCS, e.GOMAXPROCS, ref.NumCPU, e.NumCPU, ref.GoVersion, e.GoVersion)
			}
		}
	}
	group := func(recs []record) map[string]map[string][]float64 {
		g := map[string]map[string][]float64{}
		for _, r := range recs {
			if !r.Correct {
				continue
			}
			if g[r.Workload] == nil {
				g[r.Workload] = map[string][]float64{}
			}
			for name, v := range r.Metrics {
				g[r.Workload][name] = append(g[r.Workload][name], v.Value)
			}
		}
		return g
	}
	gb, gc := group(base), group(change)
	var rows []row
	for _, w := range workloads {
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				bv, cv := gb[w.name][d.name], gc[w.name][d.name]
				if len(bv) == 0 || len(cv) == 0 {
					continue
				}
				r, ok := rules[d.name]
				if !ok {
					r = rule{unit: d.unit, better: d.better}
				}
				var rw row
				rw.workload, rw.metric, rw.unit = w.name, d.name, r.unit
				rw.base[0], rw.base[1], rw.base[2] = quartiles(bv)
				rw.change[0], rw.change[1], rw.change[2] = quartiles(cv)
				rw.verdict = verdict(bv, cv, r)
				rows = append(rows, rw)
			}
		}
	}
	return rows, nil
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: perfbench compare [-bench BENCHMARK.json] base.jsonl change.jsonl")
	}
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	rules, err := readRules(*bench)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 2
	}
	base, err := readRecords(fs.Arg(0))
	if err == nil {
		var change []record
		if change, err = readRecords(fs.Arg(1)); err == nil {
			var rows []row
			if rows, err = compareRecords(base, change, rules); err == nil {
				return printRows(stdout, rows)
			}
		}
	}
	fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
	return 2
}

// printRows prints the comparison table and returns 1 when any row
// regressed.
func printRows(w io.Writer, rows []row) int {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median [q1, q3]\tchange median [q1, q3]\tdelta\tverdict")
	code := 0
	for _, r := range rows {
		delta := math.NaN()
		if r.base[1] != 0 {
			delta = (r.change[1] - r.base[1]) / math.Abs(r.base[1]) * 100
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%s\n",
			r.workload, r.metric, r.unit, r.base[1], r.base[0], r.base[2], r.change[1], r.change[0], r.change[2], delta, r.verdict)
		if r.verdict == regressed {
			code = 1
		}
	}
	if err := tw.Flush(); err != nil {
		return 2
	}
	return code
}
