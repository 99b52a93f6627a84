package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans are recorded by the
// benchmark around the layers' public functions, never inside them.
type span struct {
	ID      int            `json:"id"`
	Parent  int            `json:"parent"` // -1 for the root
	Name    string         `json:"name"`
	StartNs int64          `json:"start_ns"`
	EndNs   int64          `json:"end_ns"`
	SelfNs  int64          `json:"self_ns"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. Sequential code
// nests spans through begin/end (the open span is the parent);
// concurrent serve requests are added whole under an explicit parent.
// A nil tracer records nothing, which is the untraced run.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	open  []int
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now()}
}

func (t *tracer) on() bool { return t != nil }

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: t.parent(), Name: name, StartNs: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int, attrs map[string]any) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic("benchmark: span ended out of order: " + t.spans[id].Name)
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[id].EndNs = now
	t.spans[id].Attrs = attrs
}

// parent is the innermost open span; callers hold t.mu.
func (t *tracer) parent() int {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// add records a finished span under parent; safe from any goroutine.
func (t *tracer) add(parent int, name string, start, end time.Time, attrs map[string]any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Name: name,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(), Attrs: attrs,
	})
}

// finish computes every span's self time — its duration minus the part
// of that interval its children cover — and returns the spans.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s.ID)
	}
	for i := range t.spans {
		s := &t.spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].StartNs < t.spans[kids[b]].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(t.spans[k].StartNs, edge), min(t.spans[k].EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		s.SelfNs = s.EndNs - s.StartNs - covered
	}
	return t.spans
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.finish())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
