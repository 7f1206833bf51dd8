package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"armada"
)

// config is one benchmark run.
type config struct {
	spec    spec
	seed    int64
	seconds float64 // length of the measured (untraced) leg
	trace   bool    // also run the traced leg and the layer ladder
	setups  int     // network builds timed for setup_s (median)
	outDir  string  // span files go here; empty writes none
	// hopHook, when non-nil, observes every hop of the untraced leg's
	// queries through armada.WithTrace. Tests use it to inject delay.
	hopHook func(armada.Hop)
}

// outcome is what one run reports.
type outcome struct {
	correct   bool
	problems  []string // why correct is false
	attempted int
	failed    int
	metrics   map[string]float64
	spans     map[string]spanSummary // traced runs only
	// reads and writes measured in the untraced leg's calm slices: the
	// tails of fewer than tailSamples are a lower quantile than p99 (see
	// tail).
	reads, writes int
}

// capturedRead is a read input kept for the layer ladder.
type capturedRead struct {
	kind   opKind
	lo, hi float64
	value  float64 // lookups
}

// capturedPage is one page of a paged walk: its interval and cursor.
type capturedPage struct {
	lo, hi float64
	after  string
}

const (
	captureCap = 128             // ladder inputs kept per worker and kind
	warmup     = 2 * time.Second // at most; a quarter of the window when shorter
)

// numSlices is how many equal slices a leg's window is cut into. The
// wall-clock metrics are taken over the calm three quarters of them (see
// calmSlices): rates and medians as the median over those slices, tails
// as in tail.
const numSlices = 20

// workerStats is what one worker measured during one leg. Latencies (ms)
// and objects are kept by the slice the operation started in.
type workerStats struct {
	readLat, writeLat         [numSlices][]float64
	objects                   [numSlices]int64
	reads, writes, failed     int
	msgs, delays, dests, dels int64
	maxDelay                  int
	gen                       time.Duration
	sampled                   []capturedRead // read inputs kept for the ladder
	pages                     []capturedPage
}

// topoEvent is one Join, Leave or Fail the driver issued.
type topoEvent struct {
	dur time.Duration
	err error
}

// driver runs the closed loop on one network.
type driver struct {
	cfg     config
	net     *armada.Network
	streams []*opStream

	ops       atomic.Int64 // workload ops so far, counted to pace topology events
	evMu      sync.Mutex
	evRng     *rand.Rand
	nextEvent int64 // index of the next topology event, from 1
	events    []topoEvent
}

// leg is the merged outcome of one timed leg.
type leg struct {
	elapsed  time.Duration
	slice    time.Duration // length of one of the numSlices slices
	calm     []int         // the slices the wall-clock metrics are taken over
	cpu      time.Duration // process CPU, user and system, the OS charged
	ws       workerStats
	rt       rtDelta
	counters map[string]int64 // MetricValues deltas
	events   []topoEvent
	fc       armada.FrontierCacheStats
	sc       armada.ShortcutTableStats
	tracers  []*tracer
}

// ops is the workload operations the leg completed.
func (l *leg) ops() int { return l.ws.reads + l.ws.writes }

// rate is the median over the leg's calm slices of the operations
// completed per second.
func (l *leg) rate() float64 {
	var rates []float64
	for _, i := range l.calm {
		rates = append(rates, float64(len(l.ws.readLat[i])+len(l.ws.writeLat[i]))/l.slice.Seconds())
	}
	return median(rates)
}

// calmSlices returns, in time order, the slices left when the quarter in
// which the process was charged the least CPU is dropped, given the
// process CPU at each slice boundary. The workers are always runnable, so
// a slice in which the OS ran the process for less time lost it to the
// host — another tenant or a stolen vCPU — and its latencies measure that,
// not the program. Such episodes last seconds and come and go between
// runs; dropping them, and taking medians over what is left, keeps them
// out of the run-to-run spread.
func calmSlices(cpuAt []time.Duration) []int {
	n := len(cpuAt) - 1
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	share := func(i int) time.Duration { return cpuAt[i+1] - cpuAt[i] }
	sort.SliceStable(idx, func(a, b int) bool { return share(idx[a]) > share(idx[b]) })
	calm := idx[:max(n-n/4, 1)]
	sort.Ints(calm)
	return calm
}

// run executes one benchmark run.
func run(cfg config) (*outcome, error) {
	s := cfg.spec
	in := newInputs(s, cfg.seed)
	pubs := make([]armada.Publication, len(in.preload))
	for i, o := range in.preload {
		pubs[i] = armada.Publication{Name: o.name, Values: []float64{o.value}}
	}

	setups := max(cfg.setups, 1)
	setupTimes := make([]float64, 0, setups)
	var net *armada.Network
	for range setups {
		net = nil
		runtime.GC()
		t0 := time.Now()
		n, err := armada.NewNetwork(s.peers, s.options(cfg.seed)...)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if err := n.PublishBatch(pubs); err != nil {
			return nil, fmt.Errorf("setup: preload: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		net = n
	}

	d := &driver{cfg: cfg, net: net, evRng: rand.New(rand.NewSource(cfg.seed + 101)), nextEvent: 1}
	for w := range workers {
		d.streams = append(d.streams, newOpStream(s, in, cfg.seed, w))
	}

	out := &outcome{metrics: map[string]float64{}}
	window := time.Duration(cfg.seconds * float64(time.Second))
	count := func(l *leg) *leg {
		out.attempted += l.ops() + l.ws.failed + len(l.events)
		out.failed += l.ws.failed + countFailed(l.events)
		return l
	}
	// The warm-up fills the routing caches and grows the heap to its
	// working size before anything is timed.
	count(d.leg(min(window/4, warmup), false))
	base := count(d.leg(window, false))
	for _, i := range base.calm {
		out.reads += len(base.ws.readLat[i])
		out.writes += len(base.ws.writeLat[i])
	}
	var traced *leg
	if cfg.trace {
		traced = count(d.leg(window/4, true))
	}

	out.problems = verify(d, in)
	if v := net.MetricValues()["delay_bound_violations"]; v != 0 {
		out.problems = append(out.problems, fmt.Sprintf("delay_bound_violations = %d, want 0", v))
	}

	if !cfg.trace {
		endToEndMetrics(out.metrics, cfg, base, setupTimes)
		// Measured once the leg's samples are dropped, so the figure is the
		// network and the model, not the driver's latency buffers.
		clear(base.ws.readLat[:])
		clear(base.ws.writeLat[:])
		runtime.GC()
		out.metrics["heap_live_mb"] = float64(readRuntime().heapLive) / 1e6
		runtime.KeepAlive(d)
	} else {
		events, evCounters := base.events, base.counters
		if len(events) == 0 {
			// The workload issues no topology events of its own: time a
			// fixed rotation on the network, now that it is verified.
			events, evCounters = d.probeTopology()
		}
		layerMetrics(out.metrics, base, traced, events, evCounters)
		out.spans = summarize(traced.tracers)
		if cfg.outDir != "" {
			path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.json", s.name, cfg.seed))
			if err := writeSpans(path, traced.tracers); err != nil {
				return nil, err
			}
		}
		if err := ladder(s, cfg.seed, in, base.ws.sampled, base.ws.pages, out.metrics); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
	}
	out.correct = len(out.problems) == 0
	return out, nil
}

func countFailed(evs []topoEvent) int {
	n := 0
	for _, e := range evs {
		if e.err != nil {
			n++
		}
	}
	return n
}

// leg runs the closed loop for dur with every worker and merges what they
// measured. The garbage collections around it bring the runtime's CPU
// accounting up to date and keep the set-up's garbage out of the leg.
func (d *driver) leg(dur time.Duration, traced bool) *leg {
	l := &leg{}
	ev0 := len(d.events)
	fc0, _ := d.net.FrontierCacheStats()
	sc0, _ := d.net.ShortcutTableStats()
	c0 := d.net.MetricValues()
	runtime.GC()
	rt0 := readRuntime()
	cpu0 := processCPU()
	start := time.Now()
	// The process CPU at every slice boundary, for calmSlices.
	cpuAt := make([]time.Duration, numSlices+1)
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for i := range cpuAt {
			time.Sleep(time.Until(start.Add(dur * time.Duration(i) / numSlices)))
			cpuAt[i] = processCPU()
		}
	}()
	stats := make([]workerStats, workers)
	var wg sync.WaitGroup
	for w := range workers {
		var tr *tracer
		if traced {
			tr = newTracer(start, w)
			l.tracers = append(l.tracers, tr)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.work(d.streams[w], start, dur, tr, &stats[w])
		}()
	}
	wg.Wait()
	l.elapsed = time.Since(start)
	l.cpu = processCPU() - cpu0
	<-sampled
	l.slice = dur / numSlices
	l.calm = calmSlices(cpuAt)
	runtime.GC()
	l.rt = rt0.to(readRuntime())
	l.counters = counterDelta(c0, d.net.MetricValues())
	fc1, _ := d.net.FrontierCacheStats()
	sc1, _ := d.net.ShortcutTableStats()
	l.fc = armada.FrontierCacheStats{Hits: fc1.Hits - fc0.Hits, Misses: fc1.Misses - fc0.Misses, Stale: fc1.Stale - fc0.Stale}
	l.sc = armada.ShortcutTableStats{Hits: sc1.Hits - sc0.Hits, Misses: sc1.Misses - sc0.Misses, Stale: sc1.Stale - sc0.Stale, Evicted: sc1.Evicted - sc0.Evicted}
	d.evMu.Lock()
	l.events = append([]topoEvent(nil), d.events[ev0:]...)
	d.evMu.Unlock()
	for _, s := range stats {
		m := &l.ws
		for i := range numSlices {
			m.readLat[i] = append(m.readLat[i], s.readLat[i]...)
			m.writeLat[i] = append(m.writeLat[i], s.writeLat[i]...)
			m.objects[i] += s.objects[i]
		}
		m.reads += s.reads
		m.writes += s.writes
		m.failed += s.failed
		m.msgs += s.msgs
		m.delays += s.delays
		m.dests += s.dests
		m.dels += s.dels
		m.maxDelay = max(m.maxDelay, s.maxDelay)
		m.gen += s.gen
		m.sampled = append(m.sampled, s.sampled...)
		m.pages = append(m.pages, s.pages...)
	}
	return l
}

// work is one closed-loop caller: it issues its stream's next operation as
// soon as the previous one returns, until the window closes.
func (d *driver) work(st *opStream, start time.Time, window time.Duration, tr *tracer, ws *workerStats) {
	ctx := context.Background()
	for {
		t0 := time.Now()
		if t0.Sub(start) >= window {
			return
		}
		o := st.next()
		t1 := time.Now()
		ws.gen += t1.Sub(t0)
		slice := min(int(t1.Sub(start)*numSlices/window), numSlices-1)
		var req uint64
		root := int32(-1)
		if tr != nil {
			req = tr.newRequest()
			root = tr.begin(o.kind.String(), req, -1)
		}
		if o.kind.isRead() {
			r, err := d.read(ctx, o, tr, req, root, ws)
			lat := time.Since(t1)
			if err != nil {
				ws.failed++
			} else {
				ws.readLat[slice] = append(ws.readLat[slice], float64(lat)/1e6)
				ws.reads++
				ws.objects[slice] += int64(r.objects)
				ws.msgs += int64(r.msgs)
				ws.delays += int64(r.delay)
				ws.dests += int64(r.dests)
				ws.dels += int64(r.dels)
				ws.maxDelay = max(ws.maxDelay, r.delay)
			}
			if len(ws.sampled) < captureCap {
				ws.sampled = append(ws.sampled, capturedRead{kind: o.kind, lo: o.lo, hi: o.hi, value: o.obj.value})
			}
		} else {
			err := d.write(o, tr, req, root)
			lat := time.Since(t1)
			if err != nil {
				ws.failed++
			} else {
				st.ack(o)
				ws.writeLat[slice] = append(ws.writeLat[slice], float64(lat)/1e6)
				ws.writes++
			}
		}
		tr.end(root)
		if every := int64(d.cfg.spec.eventEvery); every > 0 {
			if n := d.ops.Add(1); n%every == 0 {
				d.topology(n/every, tr)
			}
		}
	}
}

// readResult is the cost of one read: a walk sums its pages' messages and
// objects and takes their largest delay.
type readResult struct {
	objects, msgs, delay, dests, dels int
}

func (r *readResult) add(res *armada.Result) {
	r.objects += len(res.Objects)
	r.msgs += res.Stats.Messages
	r.delay = max(r.delay, res.Stats.Delay)
	r.dests += res.Stats.DestPeers
	r.dels += res.Stats.Deliveries
}

func (d *driver) read(ctx context.Context, o op, tr *tracer, req uint64, root int32, ws *workerStats) (readResult, error) {
	var (
		r   readResult
		q   armada.Query
		rng = []armada.Range{{Low: o.lo, High: o.hi}}
	)
	switch o.kind {
	case opLookup:
		q = armada.NewValueLookup([]float64{o.obj.value})
	case opRange:
		q = armada.NewRange(rng)
	case opTopK:
		q = armada.NewRange(rng, armada.WithTopK(topK))
	case opWalk:
		return r, d.walk(ctx, rng, tr, req, root, ws, &r)
	}
	var call *readCall
	switch {
	case tr != nil:
		call = tr.beginRead("Do", req, root)
		q.Trace = call.observeHops
	case d.cfg.hopHook != nil:
		q.Trace = d.cfg.hopHook
	}
	res, err := d.net.Do(ctx, q)
	if call != nil {
		call.end()
	}
	if err != nil {
		return r, err
	}
	r.add(res)
	return r, nil
}

// walk reads a whole interval as a paged session.
func (d *driver) walk(ctx context.Context, rng []armada.Range, tr *tracer, req uint64, root int32, ws *workerStats, r *readResult) error {
	q := armada.NewRange(rng, armada.WithLimit(d.cfg.spec.pageLimit))
	var page *readCall
	switch {
	case tr != nil:
		// A session takes its hop observer from the query it was opened
		// with, so route every hop to the current page's call.
		q.Trace = func(h armada.Hop) { page.observeHops(h) }
	case d.cfg.hopHook != nil:
		q.Trace = d.cfg.hopHook
	}
	open := tr.begin("OpenSession", req, root)
	sess, err := d.net.OpenSession(q)
	tr.end(open)
	if err != nil {
		return err
	}
	defer sess.Close()
	after := ""
	for sess.More() {
		if len(ws.pages) < captureCap {
			ws.pages = append(ws.pages, capturedPage{lo: rng[0].Low, hi: rng[0].High, after: after})
		}
		if tr != nil {
			page = tr.beginRead("Next", req, root)
		}
		res, err := sess.Next(ctx)
		if page != nil {
			page.end()
		}
		if err != nil {
			return err
		}
		r.add(res)
		after = res.NextOffsetID
	}
	return nil
}

func (d *driver) write(o op, tr *tracer, req uint64, root int32) error {
	var (
		idx int32
		err error
	)
	switch o.kind {
	case opPublish:
		idx = tr.begin("Publish", req, root)
		err = d.net.Publish(o.obj.name, o.obj.value)
	case opUnpublish:
		idx = tr.begin("Unpublish", req, root)
		err = d.net.Unpublish(o.obj.name, o.obj.value)
	}
	tr.end(idx)
	return err
}

var topoKinds = [4]string{"Join", "Leave", "Join", "Fail"}

// topology issues every topology event due by event index upto, in index
// order, rotating Join, Leave, Join, Fail so the peer count holds. Events
// are paced by operation count, not wall time, so every run with a seed
// issues as many events per operation.
func (d *driver) topology(upto int64, tr *tracer) {
	d.evMu.Lock()
	defer d.evMu.Unlock()
	for ; d.nextEvent <= upto; d.nextEvent++ {
		kind := topoKinds[(d.nextEvent-1)%4]
		var req uint64
		if tr != nil {
			req = tr.newRequest()
		}
		root := tr.begin("event", req, -1)
		d.events = append(d.events, d.topoEvent(kind, tr, req, root))
		tr.end(root)
	}
}

// topoEvent runs one event; the caller holds evMu, so events never race
// each other for a target.
func (d *driver) topoEvent(kind string, tr *tracer, req uint64, root int32) topoEvent {
	var target string
	if kind != "Join" {
		ids := d.net.PeerIDs()
		target = ids[d.evRng.Intn(len(ids))]
	}
	idx := tr.begin(kind, req, root)
	t0 := time.Now()
	var err error
	switch kind {
	case "Join":
		_, err = d.net.Join()
	case "Leave":
		err = d.net.Leave(target)
	case "Fail":
		err = d.net.Fail(target)
	}
	ev := topoEvent{dur: time.Since(t0), err: err}
	tr.end(idx)
	return ev
}

// probeTopology times one fixed rotation of eight events on a quiescent
// network and returns them with the counter deltas they caused.
func (d *driver) probeTopology() ([]topoEvent, map[string]int64) {
	c0 := d.net.MetricValues()
	var evs []topoEvent
	d.evMu.Lock()
	for i := range 8 {
		evs = append(evs, d.topoEvent(topoKinds[i%4], nil, 0, -1))
	}
	d.evMu.Unlock()
	return evs, counterDelta(c0, d.net.MetricValues())
}

// counterDelta is what every counter gained from c0 to c1.
func counterDelta(c0, c1 map[string]int64) map[string]int64 {
	delta := make(map[string]int64, len(c1))
	for k, v := range c1 {
		delta[k] = v - c0[k]
	}
	return delta
}

// quantile is the nearest-rank q-quantile of xs, which it sorts; 0 when
// xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// median is the median of xs; 0 when xs is empty.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// processCPU is the CPU time the OS has charged the process. Unlike the
// runtime's /cpu/classes estimates, which count GOMAXPROCS × wall time, it
// leaves out time the host did not run the process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// delayBound is the paper's 2·log₂N bound at the workload's size; topology
// events hold the peer count within one of it.
func delayBound(peers int) float64 { return 2 * math.Log2(float64(peers)) }

func endToEndMetrics(m map[string]float64, cfg config, l *leg, setupTimes []float64) {
	reads := float64(l.ws.reads)
	attempted := float64(l.ops()+l.ws.failed) + float64(len(l.events))
	var objRate, readP50, writeP50 []float64
	for _, i := range l.calm {
		objRate = append(objRate, float64(l.ws.objects[i])/l.slice.Seconds())
		if len(l.ws.readLat[i]) > 0 {
			readP50 = append(readP50, quantile(l.ws.readLat[i], 0.50))
		}
		if len(l.ws.writeLat[i]) > 0 {
			writeP50 = append(writeP50, quantile(l.ws.writeLat[i], 0.50))
		}
	}
	m["throughput_ops_s"] = l.rate()
	m["objects_per_s"] = median(objRate)
	m["read_p50_ms"] = median(readP50)
	m["write_p50_ms"] = median(writeP50)
	m["read_p99_ms"] = tail(&l.ws.readLat, l.calm)
	m["write_p99_ms"] = tail(&l.ws.writeLat, l.calm)
	m["cpu_us_per_op"] = ratio(l.cpu.Seconds()*1e6, float64(l.ops()))
	m["msgs_per_read"] = ratio(float64(l.ws.msgs), reads)
	m["hops_per_read"] = ratio(float64(l.ws.delays), reads)
	m["worst_delay_frac"] = float64(l.ws.maxDelay) / delayBound(cfg.spec.peers)
	m["success_rate"] = ratio(attempted-float64(l.ws.failed+countFailed(l.events)), attempted)
	m["setup_s"] = median(setupTimes)
}

// tailSamples is the least number of samples a tail estimate is taken
// over: its p99 then has at least ten samples beyond it.
const tailSamples = 1000

// tail estimates the p99 of the latencies of the given slices. The slices
// are merged, in order, into as many consecutive groups as hold
// tailSamples samples each, and the median of the groups' p99s is
// reported. With fewer samples than tailSamples in all, it reports the
// highest quantile that still has ten samples beyond it.
func tail(lat *[numSlices][]float64, slices []int) float64 {
	n := 0
	for _, i := range slices {
		n += len(lat[i])
	}
	groups := min(max(n/tailSamples, 1), len(slices))
	q := 0.99
	if n < tailSamples {
		q = max(1-10/float64(max(n, 1)), 0.5)
	}
	var p99s []float64
	for g := range groups {
		var pool []float64
		for _, i := range slices[g*len(slices)/groups : (g+1)*len(slices)/groups] {
			pool = append(pool, lat[i]...)
		}
		p99s = append(p99s, quantile(pool, q))
	}
	return median(p99s)
}

func layerMetrics(m map[string]float64, base, traced *leg, events []topoEvent, evCounters map[string]int64) {
	ops := float64(base.ops())
	reads := float64(base.ws.reads)
	kops := ops / 1000
	rt := base.rt
	m["runtime.allocs_per_op"] = ratio(rt.allocObjects, ops)
	m["runtime.alloc_bytes_per_op"] = ratio(rt.allocBytes, ops)
	m["runtime.gc_cycles_per_kop"] = ratio(rt.gcCycles, kops)
	m["runtime.gc_assist_cpu_frac"] = ratio(rt.cpuAssist, rt.cpuBusy)
	m["runtime.gc_cpu_frac"] = ratio(rt.cpuGC, rt.cpuBusy)
	m["runtime.mutex_wait_us_per_op"] = ratio(rt.mutexWait*1e6, ops)
	m["runtime.sched_latency_p99_us"] = rt.schedP99 * 1e6

	var evDur time.Duration
	for _, e := range events {
		evDur += e.dur
	}
	m["armada.topology_event_ms"] = ratio(float64(evDur)/1e6, float64(len(events)))
	m["fissione.re_replications_per_event"] = ratio(float64(evCounters["fissione_re_replications_total"]), float64(len(events)))
	m["fissione.repairs_per_event"] = ratio(float64(evCounters["fissione_repairs_total"]), float64(len(events)))

	c := base.counters
	descents, seeded := float64(c["engine_descents_total"]), float64(c["engine_seeded_queries_total"])
	m["core.dest_peers_per_read"] = ratio(float64(base.ws.dests), reads)
	m["core.deliveries_per_read"] = ratio(float64(base.ws.dels), reads)
	m["core.descents_per_read"] = ratio(descents, reads)
	m["core.seeded_frac"] = ratio(seeded, descents+seeded)
	m["simnet.scheduled_msgs_per_read"] = ratio(float64(c["engine_scheduled_ops_total"]), reads)

	var readNs, fwdNs int64
	for _, t := range traced.tracers {
		readNs += t.readCallNs
		fwdNs += t.forwardNs
	}
	m["core.forward_frac"] = ratio(float64(fwdNs), float64(readNs))

	m["session.hit_rate"] = ratio(float64(base.fc.Hits), float64(base.fc.Hits+base.fc.Misses))
	m["session.stale_per_kop"] = ratio(float64(base.fc.Stale), kops)
	m["shortcut.hit_rate"] = ratio(float64(base.sc.Hits), float64(base.sc.Hits+base.sc.Misses))
	m["shortcut.stale_per_kop"] = ratio(float64(base.sc.Stale), kops)
	m["shortcut.evictions_per_kop"] = ratio(float64(base.sc.Evicted), kops)

	m["driver.gen_us_per_op"] = ratio(float64(base.ws.gen)/1e3, ops)
	m["trace_overhead_frac"] = 1 - ratio(traced.rate(), base.rate())
}
