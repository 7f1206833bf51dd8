package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"armada"
)

// maxSpans bounds the spans (and, separately, the hop instants) one
// worker keeps for the span file; the per-leg aggregates keep counting
// past it.
const maxSpans = 1 << 14

// span is one timed call made by the driver. Root spans are whole
// workload operations or topology events; their children are the calls
// into armada that served them. Times are nanoseconds since the traced
// leg began.
type span struct {
	name       string
	req        uint64
	parent     int32 // index of the parent span, -1 for a root
	start, end int64
}

// hopMark is one overlay hop reported by armada.WithTrace, timestamped in
// the callback.
type hopMark struct {
	req              uint64
	at               int64
	depth, remaining int32
}

// tracer records one worker's spans in memory for the traced leg.
type tracer struct {
	origin time.Time
	worker int
	seq    uint64
	spans  []span
	hops   []hopMark
	// Read calls (Do and Session.Next) and the part of them before the
	// first delivery hop (Remaining == 0), for core.forward_frac.
	readCallNs, forwardNs int64
}

func newTracer(origin time.Time, worker int) *tracer {
	return &tracer{origin: origin, worker: worker}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// newRequest returns a fresh request id, unique across workers.
func (t *tracer) newRequest() uint64 {
	t.seq++
	return uint64(t.worker)<<48 | t.seq
}

// begin opens a span and returns its index, or -1 once the buffer is full.
func (t *tracer) begin(name string, req uint64, parent int32) int32 {
	if t == nil || len(t.spans) >= maxSpans {
		return -1
	}
	t.spans = append(t.spans, span{name: name, req: req, parent: parent, start: t.now()})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t != nil && i >= 0 {
		t.spans[i].end = t.now()
	}
}

// readCall is one traced Do or Session.Next: a child span plus the hop
// observer that timestamps its hops and its first delivery.
type readCall struct {
	t           *tracer
	req         uint64
	idx         int32
	start       int64
	firstDeliv  int64
	observeHops func(armada.Hop)
}

func (t *tracer) beginRead(name string, req uint64, parent int32) *readCall {
	c := &readCall{t: t, req: req, idx: t.begin(name, req, parent)}
	c.observeHops = func(h armada.Hop) {
		at := t.now()
		if h.Remaining == 0 && c.firstDeliv == 0 {
			c.firstDeliv = at
		}
		if len(t.hops) < maxSpans {
			t.hops = append(t.hops, hopMark{req: c.req, at: at, depth: int32(h.Depth), remaining: int32(h.Remaining)})
		}
	}
	c.start = t.now()
	return c
}

func (c *readCall) end() {
	end := c.t.now()
	c.t.end(c.idx)
	first := c.firstDeliv
	if first == 0 {
		first = end
	}
	c.t.readCallNs += end - c.start
	c.t.forwardNs += first - c.start
}

// spanSummary is the time the traced leg spent in one kind of span.
type spanSummary struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// summarize totals span and self time per span name. A span's self time
// is its duration minus the time its child spans cover; children of one
// span never overlap, since each worker makes one call at a time.
func summarize(tracers []*tracer) map[string]spanSummary {
	out := map[string]spanSummary{}
	for _, t := range tracers {
		child := make([]int64, len(t.spans))
		for _, s := range t.spans {
			if s.parent >= 0 && s.end > 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range t.spans {
			if s.end == 0 {
				continue
			}
			sum := out[s.name]
			sum.Count++
			sum.TotalMs += float64(s.end-s.start) / 1e6
			sum.SelfMs += float64(s.end-s.start-child[i]) / 1e6
			out[s.name] = sum
		}
	}
	return out
}

// writeSpans writes the traced leg's spans and hop instants as Chrome
// trace-event JSON (load it in chrome://tracing or Perfetto).
func writeSpans(path string, tracers []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		S    string         `json:"s,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var events []event
	for _, t := range tracers {
		for _, s := range t.spans {
			if s.end == 0 {
				continue
			}
			events = append(events, event{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
				Pid: 1, Tid: t.worker, Args: map[string]any{"req": s.req}})
		}
		for _, h := range t.hops {
			events = append(events, event{Name: "hop", Ph: "i", S: "t", Ts: float64(h.at) / 1e3, Pid: 1, Tid: t.worker,
				Args: map[string]any{"req": h.req, "depth": h.depth, "remaining": h.remaining}})
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"}); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
