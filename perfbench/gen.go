package main

import (
	"math/rand"
	"strconv"
)

// object is one published object: every workload names objects uniquely,
// so the live set is a set and the model a plain sorted list.
type object struct {
	name  string
	value float64
}

// op is one generated workload operation.
type op struct {
	kind   opKind
	lo, hi float64 // range, walk and top-k interval
	obj    object  // lookup, publish and unpublish target
}

const (
	gridCells  = 64   // rangesGrid cells
	valueCells = 1000 // valuesZipfCells / rangesHotNarrow cells, one unit wide
	// valueZipfV is the offset v of the hot value cells' zipf: the cell of
	// rank k is drawn with weight (v+k)^-s. At s = 1.2 and v = 20 the
	// hottest cell holds ~1.8% of the objects, so hot peers see many times
	// the average write and scan load. At v = 1 one cell would hold ~23%,
	// every read of it would return ~11k objects, and GC pauses and
	// scheduling delays, not writes and churn, would set the tails.
	valueZipfV = 20
)

// inputs are the seed-derived inputs shared by every worker: the preload
// and the permutations that decide which cells are hot.
type inputs struct {
	preload   []object
	gridPerm  []int
	valuePerm []int
}

func newInputs(s spec, seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{gridPerm: rng.Perm(gridCells), valuePerm: rng.Perm(valueCells)}
	g := newValueGen(s, in, rng)
	in.preload = make([]object, s.objects)
	for i := range in.preload {
		in.preload[i] = object{name: "p" + strconv.Itoa(i), value: g.value()}
	}
	return in
}

// valueGen draws object values and read intervals from one rng.
type valueGen struct {
	s         spec
	in        *inputs
	rng       *rand.Rand
	valueZipf *rand.Zipf
	cellZipf  *rand.Zipf // rangesGrid cell
}

func newValueGen(s spec, in *inputs, rng *rand.Rand) *valueGen {
	g := &valueGen{s: s, in: in, rng: rng}
	if s.values == valuesZipfCells || s.ranges == rangesHotNarrow {
		g.valueZipf = rand.NewZipf(rng, s.valueZipf, valueZipfV, valueCells-1)
	}
	if s.ranges == rangesGrid {
		g.cellZipf = rand.NewZipf(rng, s.rangeZipf, 1, gridCells-1)
	}
	return g
}

func (g *valueGen) hotValue() float64 {
	return float64(g.in.valuePerm[g.valueZipf.Uint64()]) + g.rng.Float64()
}

func (g *valueGen) value() float64 {
	if g.s.values == valuesZipfCells {
		return g.hotValue()
	}
	return spaceLow + g.rng.Float64()*(spaceHigh-spaceLow)
}

func (g *valueGen) interval() (lo, hi float64) {
	const span = spaceHigh - spaceLow
	switch g.s.ranges {
	case rangesGrid:
		cell := g.in.gridPerm[g.cellZipf.Uint64()]
		const w = span / gridCells
		return spaceLow + float64(cell)*w, spaceLow + float64(cell+1)*w
	case rangesHotNarrow:
		width := span * (0.002 + 0.008*g.rng.Float64())
		lo = min(max(g.hotValue()-width/2, spaceLow), spaceHigh-width)
		return lo, lo + width
	default:
		width := span * (0.001 + 0.004*g.rng.Float64())
		lo = spaceLow + g.rng.Float64()*(span-width)
		return lo, lo + width
	}
}

// opStream is one worker's operation stream. It is a pure function of the
// seed and the worker index — it never looks at the network or at other
// workers — so every run with a seed issues the same operations, however
// the workers interleave. Each worker owns the preloaded objects with
// index ≡ worker (mod workers) plus those it publishes, and unpublishes
// only its own, so every unpublish names a live object.
//
// live is the worker's share of the benchmark's model of the stored
// objects: ack updates it once the network has acknowledged a write.
type opStream struct {
	g       *valueGen
	cum     [numOpKinds]int
	id      int
	seq     int
	live    []object
	pending int // index in live of the last drawn unpublish
}

func newOpStream(s spec, in *inputs, seed int64, worker int) *opStream {
	rng := rand.New(rand.NewSource(seed*7919 + int64(worker) + 1))
	st := &opStream{g: newValueGen(s, in, rng), id: worker}
	total := 0
	for k, w := range s.mix {
		total += w
		st.cum[k] = total
	}
	for i := worker; i < len(in.preload); i += workers {
		st.live = append(st.live, in.preload[i])
	}
	return st
}

// next returns the worker's next operation. An unpublish is only drawn
// when the worker has live objects; otherwise the draw becomes a publish.
func (st *opStream) next() op {
	g := st.g
	r := g.rng.Intn(st.cum[numOpKinds-1])
	kind := opKind(0)
	for r >= st.cum[kind] {
		kind++
	}
	switch kind {
	case opLookup:
		return op{kind: kind, obj: g.in.preload[g.rng.Intn(len(g.in.preload))]}
	case opRange, opWalk, opTopK:
		lo, hi := g.interval()
		return op{kind: kind, lo: lo, hi: hi}
	case opUnpublish:
		if len(st.live) > 0 {
			st.pending = g.rng.Intn(len(st.live))
			return op{kind: kind, obj: st.live[st.pending]}
		}
	}
	st.seq++
	return op{kind: opPublish, obj: object{name: "w" + strconv.Itoa(st.id) + "-" + strconv.Itoa(st.seq), value: g.value()}}
}

// ack records an acknowledged write of the op next last returned.
func (st *opStream) ack(o op) {
	switch o.kind {
	case opPublish:
		st.live = append(st.live, o.obj)
	case opUnpublish:
		last := len(st.live) - 1
		st.live[st.pending] = st.live[last]
		st.live = st.live[:last]
	}
}
