package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"armada"
	"armada/internal/core"
	"armada/internal/fissione"
	"armada/internal/kautz"
	"armada/internal/naming"
)

// ladderBudget is the least time each ladder rung spends repeating its
// inputs; every rung makes at least one full pass.
const ladderBudget = 150 * time.Millisecond

// Sinks keep the compiler from discarding timed calls; the typed ones
// keep interface boxing out of the allocation counts.
var (
	sink       any
	strSink    [3]kautz.Str
	regionSink kautz.Region
	boolSink   bool
)

// frozen is a network rebuilt from a run's seed and preload with no load
// on it, so every call into a layer sees the same state.
type frozen struct {
	s    spec
	net  *fissione.Network
	tree *naming.Tree
	eng  *core.Engine
	anet *armada.Network // the same topology and objects behind armada's API, no caches
	pol  []core.QueryOption
}

func newFrozen(s spec, seed int64, in *inputs) (*frozen, error) {
	net, err := fissione.BuildRandom(idLen, s.peers, seed)
	if err != nil {
		return nil, err
	}
	if s.replicas > 1 {
		if err := net.SetReplicas(s.replicas); err != nil {
			return nil, err
		}
	}
	tree, err := naming.NewTree(idLen, naming.Space{Low: spaceLow, High: spaceHigh})
	if err != nil {
		return nil, err
	}
	eng, err := core.New(net, tree)
	if err != nil {
		return nil, err
	}
	plain := s
	plain.frontier, plain.shortcut = 0, 0
	anet, err := armada.NewNetwork(s.peers, plain.options(seed)...)
	if err != nil {
		return nil, err
	}
	pubs := make([]armada.Publication, len(in.preload))
	for i, o := range in.preload {
		id, err := tree.Hash(o.value)
		if err != nil {
			return nil, err
		}
		if _, err := net.PublishAt(id, fissione.Object{Name: o.name, Values: []float64{o.value}}); err != nil {
			return nil, err
		}
		pubs[i] = armada.Publication{Name: o.name, Values: []float64{o.value}}
	}
	if err := anet.PublishBatch(pubs); err != nil {
		return nil, err
	}
	ids, aids := net.PeerIDs(), anet.PeerIDs()
	if len(ids) != len(aids) {
		return nil, fmt.Errorf("frozen networks differ: %d and %d peers", len(ids), len(aids))
	}
	for i := range ids {
		if string(ids[i]) != aids[i] {
			return nil, fmt.Errorf("frozen networks differ at peer %d: %s and %s", i, ids[i], aids[i])
		}
	}
	f := &frozen{s: s, net: net, tree: tree, eng: eng, anet: anet}
	if s.replicas > 1 {
		// armada's default read policy on a replicated network.
		f.pol = []core.QueryOption{core.WithReadPolicy(core.ReadRoundRobin)}
	}
	return f, nil
}

// timeLoop calls f over n inputs in passes until budget has elapsed, and
// returns the mean time per call and the number of calls.
func timeLoop(n int, f func(i int)) (time.Duration, int) {
	if n == 0 {
		return 0, 0
	}
	calls := 0
	start := time.Now()
	for time.Since(start) < ladderBudget || calls == 0 {
		for i := range n {
			f(i)
		}
		calls += n
	}
	return time.Since(start) / time.Duration(calls), calls
}

// mallocs is the exact count of heap allocations so far.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// ladderRange is one captured range input prepared on the frozen network.
type ladderRange struct {
	lo, hi []float64
	limit  int
	box    naming.Box
	region kautz.Region
	issuer kautz.Str
	dests  []kautz.Str // destinations of its descent
}

// ladder replays a sample of a run's inputs against a frozen network built
// from the same seed, timing each layer's exported functions directly.
func ladder(s spec, seed int64, in *inputs, reads []capturedRead, pages []capturedPage, m map[string]float64) error {
	f, err := newFrozen(s, seed, in)
	if err != nil {
		return err
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed + 303))
	ids := f.net.PeerIDs()
	issuer := func() kautz.Str { return ids[rng.Intn(len(ids))] }

	// Prepare the inputs outside every timed loop.
	var (
		ranges  []*ladderRange
		lookups []kautz.Str
		lookupI []kautz.Str
		topks   []*ladderRange
	)
	for _, r := range reads {
		if r.kind == opLookup {
			id, err := f.tree.Hash(r.value)
			if err != nil {
				return err
			}
			lookups = append(lookups, id)
			lookupI = append(lookupI, issuer())
			continue
		}
		lr := &ladderRange{lo: []float64{r.lo}, hi: []float64{r.hi}, issuer: issuer()}
		if r.kind == opWalk {
			lr.limit = s.pageLimit
		}
		if lr.box, err = f.tree.NewBox(lr.lo, lr.hi); err != nil {
			return err
		}
		if lr.region, err = f.tree.QueryRegion(lr.box); err != nil {
			return err
		}
		res, err := f.eng.RangeQuery(ctx, lr.issuer, lr.lo, lr.hi, core.WithRunsOnly())
		if err != nil {
			return err
		}
		lr.dests = res.Destinations
		if r.kind == opTopK {
			topks = append(topks, lr)
		} else {
			ranges = append(ranges, lr)
		}
	}

	// core: a whole query on the engine, below armada's API.
	rangeOpts := func(lr *ladderRange) []core.QueryOption {
		opts := append([]core.QueryOption{core.WithRunsOnly()}, f.pol...)
		if lr.limit > 0 {
			opts = append(opts, core.WithLimit(lr.limit))
		}
		return opts
	}
	all := len(ranges) + len(topks) + len(lookups)
	var qerr error
	per, _ := timeLoop(all, func(i int) {
		var err error
		switch {
		case i < len(ranges):
			lr := ranges[i]
			sink, err = f.eng.RangeQuery(ctx, lr.issuer, lr.lo, lr.hi, rangeOpts(lr)...)
		case i < len(ranges)+len(topks):
			lr := topks[i-len(ranges)]
			sink, err = f.eng.TopK(ctx, lr.issuer, lr.lo, lr.hi, topK, f.pol...)
		default:
			j := i - len(ranges) - len(topks)
			sink, err = f.eng.Lookup(ctx, lookupI[j], lookups[j], f.pol...)
		}
		if err != nil {
			qerr = err
		}
	})
	m["core.descent_us"] = float64(per) / 1e3

	// armada: Do minus the engine call it wraps, per object returned,
	// alternating the two on the same inputs.
	var doNs, engNs, objects int64
	timeLoop(len(ranges), func(i int) {
		lr := ranges[i]
		q := armada.NewRange([]armada.Range{{Low: lr.lo[0], High: lr.hi[0]}}, armada.WithIssuer(string(lr.issuer)))
		q.Limit = lr.limit
		t0 := time.Now()
		res, err := f.anet.Do(ctx, q)
		t1 := time.Now()
		sink, _ = f.eng.RangeQuery(ctx, lr.issuer, lr.lo, lr.hi, rangeOpts(lr)...)
		t2 := time.Now()
		if err != nil {
			qerr = err
			return
		}
		doNs += int64(t1.Sub(t0))
		engNs += int64(t2.Sub(t1))
		objects += int64(len(res.Objects))
	})
	m["armada.assembly_ns_per_object"] = ratio(float64(doNs-engNs), float64(objects))
	if qerr != nil {
		return qerr
	}

	// kautz: the region arithmetic of a descent, and name hashing.
	k := idLen
	regionOps := func(i int) {
		r := ranges[i].region
		cp := kautz.CommonPrefix(r.Low, r.High)
		lo, hi := kautz.MinExtend(cp, k), kautz.MaxExtend(cp, k)
		next, _ := kautz.Succ(r.Low)
		strSink = [3]kautz.Str{lo, hi, next}
	}
	a0 := mallocs()
	per, calls := timeLoop(len(ranges), regionOps)
	m["kautz.region_ns"] = float64(per)
	m["kautz.region_allocs"] = ratio(float64(mallocs()-a0), float64(calls))
	names := in.preload[:min(len(in.preload), 1024)]
	per, _ = timeLoop(len(names), func(i int) { strSink[0] = kautz.Hash(names[i].name, k) })
	m["kautz.hash_ns"] = float64(per)

	// naming: value hashing, query geometry and the subspace predicate.
	per, _ = timeLoop(len(names), func(i int) { strSink[0], _ = f.tree.Hash(names[i].value) })
	m["naming.hash_ns"] = float64(per)
	per, _ = timeLoop(len(ranges), func(i int) {
		box, _ := f.tree.NewBox(ranges[i].lo, ranges[i].hi)
		regionSink, _ = f.tree.QueryRegion(box)
	})
	m["naming.query_region_ns"] = float64(per)
	type pair struct {
		prefix kautz.Str
		lr     *ladderRange
	}
	var pairs []pair
	for _, lr := range ranges {
		for _, d := range lr.dests {
			pairs = append(pairs, pair{d, lr})
		}
	}
	per, _ = timeLoop(len(pairs), func(i int) { boolSink, _ = f.tree.IntersectsPrefix(pairs[i].prefix, pairs[i].lr.box) })
	m["naming.intersects_ns"] = float64(per)

	// fissione: each destination's delivery scan, clipped to the region
	// it owns.
	type delivery struct {
		peer *fissione.Peer
		scan kautz.Region
	}
	var dels []delivery
	for _, lr := range ranges {
		for _, d := range lr.dests {
			p, ok := f.net.Peer(d)
			if !ok {
				return fmt.Errorf("destination %s missing", d)
			}
			own := kautz.Region{Low: kautz.MinExtend(d, k), High: kautz.MaxExtend(d, k)}
			if scan, ok := lr.region.Intersect(own); ok {
				dels = append(dels, delivery{p, scan})
			}
		}
	}
	var visited int64
	per, calls = timeLoop(len(dels), func(i int) {
		dels[i].peer.ScanRegionHinted(dels[i].scan, "", nil, func(fissione.StoredObject) bool {
			visited++
			return true
		})
	})
	m["fissione.scan_ns_per_object"] = ratio(float64(per)*float64(calls), float64(visited))

	amp, err := f.scanAmplification(ctx, ranges, pages, issuer)
	if err != nil {
		return err
	}
	m["fissione.scan_amplification"] = amp

	g := newValueGen(s, in, rng)
	fresh := make([]fissione.StoredObject, 512)
	for i := range fresh {
		v := g.value()
		id, err := f.tree.Hash(v)
		if err != nil {
			return err
		}
		fresh[i] = fissione.StoredObject{ObjectID: id, Object: fissione.Object{Name: "ladder-" + strconv.Itoa(i), Values: []float64{v}}}
	}
	t0 := time.Now()
	for _, so := range fresh {
		if _, err := f.net.PublishAt(so.ObjectID, so.Object); err != nil {
			return err
		}
	}
	m["fissione.publish_us"] = float64(time.Since(t0)) / 1e3 / float64(len(fresh))
	return nil
}

// scanAmplification is objects examined by the delivery scans per object
// returned. Each destination of a page scans under the engine's own rule —
// skip objects outside the box, stop after Limit matches once the ObjectID
// changes — so a paged walk shows the Limit+1-per-destination overscan. A
// workload without walks measures its unpaged ranges instead.
func (f *frozen) scanAmplification(ctx context.Context, ranges []*ladderRange, pages []capturedPage, issuer func() kautz.Str) (float64, error) {
	type page struct {
		lr    *ladderRange
		after kautz.Str
	}
	var ps []page
	for _, p := range pages {
		lr := &ladderRange{lo: []float64{p.lo}, hi: []float64{p.hi}, limit: f.s.pageLimit, issuer: issuer()}
		var err error
		if lr.box, err = f.tree.NewBox(lr.lo, lr.hi); err != nil {
			return 0, err
		}
		if lr.region, err = f.tree.QueryRegion(lr.box); err != nil {
			return 0, err
		}
		ps = append(ps, page{lr, kautz.Str(p.after)})
	}
	if len(ps) == 0 {
		for _, lr := range ranges {
			ps = append(ps, page{lr: lr})
		}
	}
	k := f.net.K()
	var examined, returned int
	for _, p := range ps {
		opts := append([]core.QueryOption{core.WithRunsOnly(), core.WithAfter(p.after)}, f.pol...)
		if p.lr.limit > 0 {
			opts = append(opts, core.WithLimit(p.lr.limit))
		}
		res, err := f.eng.RangeQuery(ctx, p.lr.issuer, p.lr.lo, p.lr.hi, opts...)
		if err != nil {
			return 0, err
		}
		for _, run := range res.Runs {
			returned += len(run)
		}
		for _, d := range res.Destinations {
			peer, ok := f.net.Peer(d)
			if !ok {
				return 0, fmt.Errorf("destination %s missing", d)
			}
			own := kautz.Region{Low: kautz.MinExtend(d, k), High: kautz.MaxExtend(d, k)}
			scan, ok := p.lr.region.Intersect(own)
			if !ok {
				continue
			}
			collected := 0
			var last kautz.Str
			peer.ScanRegionHinted(scan, p.after, nil, func(so fissione.StoredObject) bool {
				examined++
				if !p.lr.box.Contains(so.Object.Values) {
					return true
				}
				if lim := p.lr.limit; lim > 0 && collected >= lim && so.ObjectID != last {
					return false
				}
				collected++
				last = so.ObjectID
				return true
			})
		}
	}
	return ratio(float64(examined), float64(returned)), nil
}
