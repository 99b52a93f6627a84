package order

import (
	"container/heap"

	"ihtl/internal/graph"
)

// GOrder implements the greedy windowed ordering of Wei, Yu, Lu & Lin
// (SIGMOD 2016). Vertices are emitted one at a time; the next vertex
// is the one maximising the GOrder score against the last W emitted
// vertices, where the score of candidate v against window member u is
//
//	S(u,v) = Sₛ(u,v) + Sₙ(u,v)
//
// with Sₙ counting direct edges between u and v and Sₛ counting
// common in-neighbours (siblings). Keys are maintained incrementally:
// when u enters the window, the key of every out/in-neighbour and
// every 2-hop sibling of u is incremented; when u leaves, the same
// keys are decremented. The 2-hop sweep makes GOrder's preprocessing
// dramatically slower than iHTL's — the paper measures >2000x (Fig 8)
// — which this implementation reproduces by design.
type GOrder struct {
	// W is the window size; 0 selects the paper's 5.
	W int
}

// Name implements Algorithm.
func (GOrder) Name() string { return "gorder" }

// keyHeap is a max-heap with lazy deletion: stale entries are skipped
// at pop time by comparing against the live key array.
type keyHeap struct {
	entries []heapEntry
}

type heapEntry struct {
	key int32
	v   graph.VID
}

func (h *keyHeap) Len() int { return len(h.entries) }
func (h *keyHeap) Less(i, j int) bool {
	if h.entries[i].key != h.entries[j].key {
		return h.entries[i].key > h.entries[j].key
	}
	return h.entries[i].v < h.entries[j].v
}
func (h *keyHeap) Swap(i, j int) { h.entries[i], h.entries[j] = h.entries[j], h.entries[i] }
func (h *keyHeap) Push(x any)    { h.entries = append(h.entries, x.(heapEntry)) }
func (h *keyHeap) Pop() any {
	old := h.entries
	n := len(old)
	e := old[n-1]
	h.entries = old[:n-1]
	return e
}

// Permutation implements Algorithm.
func (o GOrder) Permutation(g *graph.Graph) []graph.VID {
	n := g.NumV
	perm := make([]graph.VID, n)
	if n == 0 {
		return perm
	}
	w := o.W
	if w <= 0 {
		w = 5
	}

	keys := make([]int32, n)
	placed := make([]bool, n)
	h := &keyHeap{}
	heap.Init(h)

	// adjustFor bumps the keys affected by u entering (+1) or leaving
	// (-1) the window: direct neighbours (Sₙ) and out-neighbours of
	// u's in-neighbours (Sₛ siblings).
	adjustFor := func(u graph.VID, delta int32) {
		bump := func(x graph.VID) {
			if placed[x] || x == u {
				return
			}
			keys[x] += delta
			// Push on decrements too: lazy deletion discards stale
			// entries, and without a fresh entry a downgraded vertex
			// would vanish from the heap entirely.
			heap.Push(h, heapEntry{key: keys[x], v: x})
		}
		for _, x := range g.Out(u) {
			bump(x)
		}
		for _, p := range g.In(u) {
			bump(p)
			for _, x := range g.Out(p) {
				bump(x)
			}
		}
	}

	// Start from the vertex with the largest in-degree, as the
	// reference implementation does.
	start := graph.VID(0)
	best := -1
	for v := 0; v < n; v++ {
		if d := g.InDegree(graph.VID(v)); d > best {
			best, start = d, graph.VID(v)
		}
	}

	window := make([]graph.VID, 0, w)
	emit := func(v graph.VID) {
		placed[v] = true
		if len(window) == w {
			oldest := window[0]
			window = window[1:]
			adjustFor(oldest, -1)
		}
		window = append(window, v)
		adjustFor(v, +1)
	}

	next := 0
	perm[start] = graph.VID(next)
	next++
	emit(start)

	// scan is the fallback cursor for exhausted-heap situations
	// (disconnected remainders all with key 0).
	scan := 0
	for next < n {
		var v graph.VID
		found := false
		for h.Len() > 0 {
			e := heap.Pop(h).(heapEntry)
			if !placed[e.v] && e.key == keys[e.v] {
				v, found = e.v, true
				break
			}
		}
		if !found {
			for placed[scan] {
				scan++
			}
			v = graph.VID(scan)
		}
		perm[v] = graph.VID(next)
		next++
		emit(v)
	}
	return perm
}
