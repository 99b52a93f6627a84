package sched

// ForParts runs fn(worker, part) for every part in [0, nparts) over
// the ForStatic split, so with nparts == pool.Workers() every worker
// owns one part. No fault site fires here: the build passes fire their
// own per part.
func ForParts(pool *Pool, nparts int, fn func(worker, part int)) {
	//ihtl:allow-nosite fn is the caller's part body, which fires the caller's site
	pool.ForStatic(nparts, func(worker, lo, hi int) {
		for p := lo; p < hi; p++ {
			fn(worker, p)
		}
	})
}

// ScatterByKey is the order-preserving counting scatter every
// preprocessing transposition is built from: edge list → rows, CSR ↔
// CSC, in-lists of hubs → flipped block. (The iHTL sparse block is not
// a transposition: its rows are short, so the build gathers and sorts
// them in place.)
//
// The caller's items form one ascending sequence cut into nparts
// contiguous parts. walk(worker, part, cursor, out) must visit the
// items of its part in sequence order and, for each item with key k
// and value v, do
//
//	c := cursor[k]; if out != nil { out[c] = v }; cursor[k] = c + 1
//
// It runs twice per part: first with out == nil over a zeroed cursor
// (a histogram), then with the part's scatter cursor and the output
// array. Between the two, the per-part histograms are folded and
// prefix-summed into the offset array, and part p's cursor for key k
// is set to start after the runs of parts < p. Parts are ascending and
// each part scatters in visit order, so bucket k lists its values in
// the order the whole sequence visits them — whatever nparts is. That
// is the ordering argument of the build: visiting rows in ascending
// order makes every transposed list ascending, and the result is the
// same bit for bit for every worker count.
//
// It returns the numKeys+1 offsets and the scattered values.
func ScatterByKey(pool *Pool, numKeys, nparts int, walk func(worker, part int, cursor []int64, out []uint32)) (index []int64, out []uint32) {
	index = make([]int64, numKeys+1)
	if numKeys == 0 {
		return index, []uint32{}
	}
	cursors := make([]int64, nparts*numKeys)
	ForParts(pool, nparts, func(worker, p int) {
		walk(worker, p, cursors[p*numKeys:(p+1)*numKeys], nil)
	})
	//ihtl:allow-nosite the offset folds are memory-only; the walks fire the callers' sites
	pool.ForStatic(numKeys, func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			var t int64
			for p := 0; p < nparts; p++ {
				t += cursors[p*numKeys+k]
			}
			index[k+1] = t
		}
	})
	PrefixSum(pool, index)
	//ihtl:allow-nosite the offset folds are memory-only; the walks fire the callers' sites
	pool.ForStatic(numKeys, func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			off := index[k]
			for p := 0; p < nparts; p++ {
				c := cursors[p*numKeys+k]
				cursors[p*numKeys+k] = off
				off += c
			}
		}
	})
	out = make([]uint32, index[numKeys])
	ForParts(pool, nparts, func(worker, p int) {
		walk(worker, p, cursors[p*numKeys:(p+1)*numKeys], out)
	})
	return index, out
}

// ScatterRows is the ScatterByKey walk over rows [lo, hi) of an
// adjacency in offset/value form: entry k of row r is an item with key
// k and value r. Visiting rows in ascending order is what makes every
// list of a transposition ascending.
//
//ihtl:noalloc
func ScatterRows(index []int64, nbrs []uint32, lo, hi int, cursor []int64, out []uint32) {
	for r := lo; r < hi; r++ {
		for _, k := range nbrs[index[r]:index[r+1]] {
			c := cursor[k]
			if out != nil {
				out[c] = uint32(r)
			}
			cursor[k] = c + 1
		}
	}
}
