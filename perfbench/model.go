package main

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"armada"
	"armada/internal/kautz"
	"armada/internal/naming"
)

// Verification sample: range reads and paged walks drawn from the
// workload's own interval distribution, after the load has stopped.
const (
	verifyRanges = 24
	verifyWalks  = 4
)

// modelObject is one live object as the benchmark expects the network to
// return it.
type modelObject struct {
	id    kautz.Str
	name  string
	value float64
}

// model is the sorted multiset of live objects: the union of every
// worker's acknowledged writes over the preload, in the order range
// results use — (ObjectID, Name, Values).
type model struct {
	tree *naming.Tree
	objs []modelObject
}

func newModel(streams []*opStream) (*model, error) {
	tree, err := naming.NewTree(idLen, naming.Space{Low: spaceLow, High: spaceHigh})
	if err != nil {
		return nil, err
	}
	m := &model{tree: tree}
	for _, st := range streams {
		for _, o := range st.live {
			id, err := tree.Hash(o.value)
			if err != nil {
				return nil, err
			}
			m.objs = append(m.objs, modelObject{id: id, name: o.name, value: o.value})
		}
	}
	slices.SortFunc(m.objs, func(a, b modelObject) int {
		if c := cmp.Compare(a.id, b.id); c != 0 {
			return c
		}
		if c := cmp.Compare(a.name, b.name); c != 0 {
			return c
		}
		return cmp.Compare(a.value, b.value)
	})
	return m, nil
}

// inRange returns the live objects with lo ≤ value ≤ hi in result order.
// The naming is order-preserving, so they lie between the ObjectIDs of lo
// and hi; objects sharing a boundary ObjectID are filtered by value.
func (m *model) inRange(lo, hi float64) ([]modelObject, error) {
	loID, err := m.tree.Hash(lo)
	if err != nil {
		return nil, err
	}
	hiID, err := m.tree.Hash(hi)
	if err != nil {
		return nil, err
	}
	i := sort.Search(len(m.objs), func(i int) bool { return m.objs[i].id >= loID })
	var out []modelObject
	for ; i < len(m.objs) && m.objs[i].id <= hiID; i++ {
		if v := m.objs[i].value; v >= lo && v <= hi {
			out = append(out, m.objs[i])
		}
	}
	return out, nil
}

// same compares a result with the model field by field, values by bits.
func same(got []armada.Object, want []modelObject) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d objects, want %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Name != w.name || g.ID != string(w.id) || len(g.Values) != 1 ||
			math.Float64bits(g.Values[0]) != math.Float64bits(w.value) {
			return fmt.Errorf("object %d is %s@%s %v, want %s@%s [%v]", i, g.Name, g.ID, g.Values, w.name, w.id, w.value)
		}
	}
	return nil
}

// verify checks the network after the load: a sample of range reads and
// paged walks against the model, byte for byte, and a structural audit.
// It returns every problem found.
func verify(d *driver, in *inputs) []string {
	m, err := newModel(d.streams)
	if err != nil {
		return []string{"model: " + err.Error()}
	}
	var problems []string
	ctx := context.Background()
	g := newValueGen(d.cfg.spec, in, rand.New(rand.NewSource(d.cfg.seed+202)))
	limit := d.cfg.spec.pageLimit
	if limit == 0 {
		limit = 16
	}
	for i := range verifyRanges + verifyWalks {
		lo, hi := g.interval()
		want, err := m.inRange(lo, hi)
		if err != nil {
			return append(problems, "model: "+err.Error())
		}
		rng := []armada.Range{{Low: lo, High: hi}}
		var got []armada.Object
		if i < verifyRanges {
			res, err := d.net.Do(ctx, armada.NewRange(rng))
			if err != nil {
				problems = append(problems, fmt.Sprintf("range [%v, %v]: %v", lo, hi, err))
				continue
			}
			got = res.Objects
		} else {
			sess, err := d.net.OpenSession(armada.NewRange(rng, armada.WithLimit(limit)))
			for err == nil && sess.More() {
				var res *armada.Result
				if res, err = sess.Next(ctx); err == nil {
					got = append(got, res.Objects...)
				}
			}
			if err != nil {
				problems = append(problems, fmt.Sprintf("walk [%v, %v]: %v", lo, hi, err))
				continue
			}
		}
		if err := same(got, want); err != nil {
			problems = append(problems, fmt.Sprintf("read %d [%v, %v]: %v", i, lo, hi, err))
		}
	}
	var audit error
	if s := d.cfg.spec.auditSample; s > 0 {
		audit = d.net.AuditSampled(s)
	} else {
		audit = d.net.Audit()
	}
	if audit != nil {
		problems = append(problems, "audit: "+audit.Error())
	}
	return problems
}
