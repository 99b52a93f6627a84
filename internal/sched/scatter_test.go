package sched

import (
	"slices"
	"testing"
)

// TestScatterByKeyKeepsSequenceOrder checks the primitive's whole
// contract on a sequence whose values are its positions: offsets count
// every key, and each bucket lists its items in sequence order (here:
// ascending), identically for a one-worker pool, one part, even parts,
// and uneven parts with empty ones among them.
func TestScatterByKeyKeepsSequenceOrder(t *testing.T) {
	const numKeys = 37
	keys := make([]int, 5000)
	for i := range keys {
		keys[i] = (i*i + 7*i) % numKeys
		if i%11 == 0 {
			keys[i] = 5 // a hot key every part hits
		}
	}
	wantIndex := make([]int64, numKeys+1)
	for _, k := range keys {
		wantIndex[k+1]++
	}
	for k := 0; k < numKeys; k++ {
		wantIndex[k+1] += wantIndex[k]
	}

	pool := NewPool(4)
	defer pool.Close()
	one := NewPool(1)
	defer one.Close()
	for _, tc := range []struct {
		name   string
		pool   *Pool
		bounds []int
	}{
		{"one-worker", one, []int{0, len(keys)}},
		{"pool-one-part", pool, []int{0, len(keys)}},
		{"even", pool, []int{0, 1250, 2500, 3750, len(keys)}},
		{"uneven-with-empty-parts", pool, []int{0, 0, 3, 3, 4999, len(keys), len(keys)}},
	} {
		index, out := ScatterByKey(tc.pool, numKeys, len(tc.bounds)-1, func(_, part int, cursor []int64, out []uint32) {
			for i := tc.bounds[part]; i < tc.bounds[part+1]; i++ {
				c := cursor[keys[i]]
				if out != nil {
					out[c] = uint32(i)
				}
				cursor[keys[i]] = c + 1
			}
		})
		if !slices.Equal(index, wantIndex) {
			t.Fatalf("%s: offsets differ from the key histogram", tc.name)
		}
		for k := 0; k < numKeys; k++ {
			bucket := out[index[k]:index[k+1]]
			if !slices.IsSorted(bucket) {
				t.Fatalf("%s: bucket %d is out of sequence order: %v", tc.name, k, bucket)
			}
			for _, i := range bucket {
				if keys[i] != k {
					t.Fatalf("%s: item %d landed in bucket %d, key %d", tc.name, i, k, keys[i])
				}
			}
		}
	}

	index, out := ScatterByKey(nil, 0, 1, func(int, int, []int64, []uint32) { t.Error("walk called with no keys") })
	if !slices.Equal(index, []int64{0}) || len(out) != 0 {
		t.Fatalf("no keys: got %v, %v", index, out)
	}
}
