package main

import (
	"fmt"

	"armada"
)

// Attribute space of every workload: the default single [0, 1000]
// attribute (the paper's simulation interval), ObjectIDs of length 32.
const (
	spaceLow  = 0.0
	spaceHigh = 1000.0
	idLen     = 32
	workers   = 2 // closed-loop callers; nproc of the 2-vCPU box the bounds were fixed on
	topK      = 10
)

// opKind is one operation of a workload's mix.
type opKind uint8

const (
	opLookup opKind = iota
	opRange
	opWalk
	opTopK
	opPublish
	opUnpublish
	numOpKinds
)

var opNames = [numOpKinds]string{"lookup", "range", "walk", "topk", "publish", "unpublish"}

func (k opKind) String() string { return opNames[k] }

func (k opKind) isRead() bool { return k <= opTopK }

// valueDist selects how object values are drawn.
type valueDist uint8

const (
	valuesUniform valueDist = iota
	valuesZipfCells
)

// rangeDist selects how a range read's interval is drawn.
type rangeDist uint8

const (
	// rangesNarrow: width 0.1–0.5% of the space, uniform start.
	rangesNarrow rangeDist = iota
	// rangesGrid: one zipf-chosen cell of a 64-cell grid, so
	// dashboard-style regions repeat.
	rangesGrid
	// rangesHotNarrow: width 0.2–1% of the space, centred on a zipf-hot
	// value cell (the same cells the objects cluster in).
	rangesHotNarrow
)

// spec is one workload.
type spec struct {
	name       string
	peers      int
	objects    int // preloaded before the timed window
	replicas   int
	frontier   int // WithFrontierCache capacity; 0 = no cache
	shortcut   int // WithShortcutTable capacity; 0 = no table
	values     valueDist
	valueZipf  float64 // zipf exponent of the hot value cells (valuesZipfCells, rangesHotNarrow)
	ranges     rangeDist
	rangeZipf  float64 // zipf exponent of rangesGrid
	pageLimit  int     // page size of paged walks
	eventEvery int     // workload ops between topology events; 0 = none
	// auditSample, when positive, audits that many evenly spaced peers
	// instead of all of them (the cover is always checked in full).
	auditSample int
	mix         [numOpKinds]int // weights in percent
}

// workloads are the benchmark's workloads. Each makes a different layer
// dominate (BENCHMARK.json carries the one-line reason for each):
//   - route: every op pays a ~log2 N descent and almost no scan or copy.
//   - scan: reads return thousands of objects; cache hits skip descents.
//   - churn-write: writes and topology changes run beside reads.
var workloads = []spec{
	{
		name:        "route",
		peers:       10000,
		objects:     20000,
		replicas:    1,
		values:      valuesUniform,
		ranges:      rangesNarrow,
		auditSample: 512,
		mix:         [numOpKinds]int{opLookup: 45, opRange: 45, opPublish: 5, opUnpublish: 5},
	},
	{
		name:      "scan",
		peers:     2000,
		objects:   200000,
		replicas:  1,
		frontier:  256,
		shortcut:  512,
		values:    valuesUniform,
		ranges:    rangesGrid,
		rangeZipf: 1.3,
		pageLimit: 256,
		mix:       [numOpKinds]int{opRange: 30, opWalk: 60, opLookup: 5, opPublish: 5},
	},
	{
		name:       "churn-write",
		peers:      2000,
		objects:    50000,
		replicas:   2,
		frontier:   256,
		shortcut:   512,
		values:     valuesZipfCells,
		valueZipf:  1.2,
		ranges:     rangesHotNarrow,
		eventEvery: 200,
		mix:        [numOpKinds]int{opPublish: 35, opUnpublish: 10, opLookup: 10, opRange: 40, opTopK: 5},
	},
}

func workloadByName(name string) (spec, error) {
	for _, s := range workloads {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// options are the network options the workload runs with.
func (s spec) options(seed int64) []armada.Option {
	opts := []armada.Option{armada.WithSeed(seed), armada.WithK(idLen),
		armada.WithAttributes(armada.AttributeSpace{Low: spaceLow, High: spaceHigh})}
	if s.replicas > 1 {
		opts = append(opts, armada.WithReplication(s.replicas))
	}
	if s.frontier > 0 {
		opts = append(opts, armada.WithFrontierCache(s.frontier))
	}
	if s.shortcut > 0 {
		opts = append(opts, armada.WithShortcutTable(s.shortcut))
	}
	return opts
}

// metricDef names one reported metric. moves and on record which
// end-to-end metric a per-layer metric should move, on which workload.
// The end-to-end bounds live in BENCHMARK.json only.
type metricDef struct {
	name   string
	unit   string
	better string
	moves  string
	on     string
}

// endToEnd are measured from untraced runs, on every workload.
var endToEnd = []metricDef{
	{name: "throughput_ops_s", unit: "1/s", better: "higher"},
	{name: "objects_per_s", unit: "1/s", better: "higher"},
	{name: "read_p50_ms", unit: "ms", better: "lower"},
	{name: "read_p99_ms", unit: "ms", better: "lower"},
	{name: "write_p50_ms", unit: "ms", better: "lower"},
	{name: "write_p99_ms", unit: "ms", better: "lower"},
	{name: "cpu_us_per_op", unit: "us", better: "lower"},
	{name: "msgs_per_read", unit: "count", better: "lower"},
	{name: "hops_per_read", unit: "count", better: "lower"},
	{name: "worst_delay_frac", unit: "frac", better: "lower"},
	{name: "success_rate", unit: "frac", better: "higher"},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "heap_live_mb", unit: "MB", better: "lower"},
}

// perLayer come from the traced run (--trace 1), on every workload.
var perLayer = []metricDef{
	{name: "runtime.allocs_per_op", unit: "count", better: "lower", moves: "cpu_us_per_op", on: "route"},
	{name: "runtime.alloc_bytes_per_op", unit: "B", better: "lower", moves: "read_p99_ms", on: "scan"},
	{name: "runtime.gc_cycles_per_kop", unit: "count", better: "lower", moves: "read_p99_ms", on: "scan"},
	{name: "runtime.gc_assist_cpu_frac", unit: "frac", better: "lower", moves: "read_p99_ms", on: "scan"},
	{name: "runtime.gc_cpu_frac", unit: "frac", better: "lower", moves: "read_p99_ms", on: "scan"},
	{name: "runtime.mutex_wait_us_per_op", unit: "us", better: "lower", moves: "read_p99_ms,write_p99_ms", on: "churn-write"},
	{name: "runtime.sched_latency_p99_us", unit: "us", better: "lower", moves: "none (stays flat: the load measures the program, not the scheduler)", on: "all"},
	{name: "armada.assembly_ns_per_object", unit: "ns", better: "lower", moves: "objects_per_s", on: "scan"},
	{name: "armada.topology_event_ms", unit: "ms", better: "lower", moves: "read_p99_ms,write_p99_ms", on: "churn-write"},
	{name: "core.descent_us", unit: "us", better: "lower", moves: "read_p50_ms,throughput_ops_s", on: "route"},
	{name: "core.forward_frac", unit: "frac", better: "lower", moves: "read_p50_ms", on: "route"},
	{name: "core.dest_peers_per_read", unit: "count", better: "lower", moves: "msgs_per_read", on: "scan,churn-write"},
	{name: "core.deliveries_per_read", unit: "count", better: "lower", moves: "msgs_per_read", on: "scan,churn-write"},
	{name: "core.descents_per_read", unit: "count", better: "lower", moves: "msgs_per_read", on: "scan,churn-write"},
	{name: "core.seeded_frac", unit: "frac", better: "higher", moves: "msgs_per_read", on: "scan,churn-write"},
	{name: "simnet.scheduled_msgs_per_read", unit: "count", better: "lower", moves: "cpu_us_per_op", on: "route"},
	{name: "kautz.region_ns", unit: "ns", better: "lower", moves: "read_p50_ms", on: "route"},
	{name: "kautz.region_allocs", unit: "count", better: "lower", moves: "read_p50_ms", on: "route"},
	{name: "kautz.hash_ns", unit: "ns", better: "lower", moves: "read_p50_ms", on: "route"},
	{name: "naming.hash_ns", unit: "ns", better: "lower", moves: "write_p50_ms,read_p50_ms", on: "route"},
	{name: "naming.query_region_ns", unit: "ns", better: "lower", moves: "read_p50_ms", on: "route"},
	{name: "naming.intersects_ns", unit: "ns", better: "lower", moves: "read_p50_ms", on: "route"},
	{name: "fissione.scan_ns_per_object", unit: "ns", better: "lower", moves: "objects_per_s", on: "scan"},
	{name: "fissione.scan_amplification", unit: "frac", better: "lower", moves: "read_p50_ms", on: "scan"},
	{name: "fissione.publish_us", unit: "us", better: "lower", moves: "write_p50_ms", on: "churn-write"},
	{name: "fissione.re_replications_per_event", unit: "count", better: "lower", moves: "write_p99_ms", on: "churn-write"},
	{name: "fissione.repairs_per_event", unit: "count", better: "lower", moves: "write_p99_ms", on: "churn-write"},
	{name: "session.hit_rate", unit: "frac", better: "higher", moves: "msgs_per_read", on: "scan"},
	{name: "session.stale_per_kop", unit: "count", better: "lower", moves: "msgs_per_read", on: "churn-write"},
	{name: "shortcut.hit_rate", unit: "frac", better: "higher", moves: "hops_per_read", on: "scan,churn-write"},
	{name: "shortcut.stale_per_kop", unit: "count", better: "lower", moves: "hops_per_read", on: "scan,churn-write"},
	{name: "shortcut.evictions_per_kop", unit: "count", better: "lower", moves: "hops_per_read", on: "scan,churn-write"},
	{name: "driver.gen_us_per_op", unit: "us", better: "lower", moves: "none (stays small: the harness is not the bottleneck)", on: "all"},
	{name: "trace_overhead_frac", unit: "frac", better: "lower", moves: "none (stays small: the harness is not the bottleneck)", on: "all"},
}
