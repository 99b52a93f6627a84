// Package deadcode is the root of the deadcode fixture: it aliases a
// type of its internal/lib package, which makes that type's methods and
// fields public.
package deadcode

import (
	"fmt"
	"sort"

	"ihtlvet.test/deadcode/internal/lib"
)

// Pub is lib.Pub, public through the alias.
type Pub = lib.Pub

// Run reaches lib's referenced surface.
func Run() string {
	sort.Sort(lib.Items(nil))
	return fmt.Sprint(lib.Used(), lib.Config{Set: 1}.Set, lib.Item{})
}

// Write writes every field of lib.Written and reads only Read.
func Write(r *lib.Reads) int {
	w := lib.Written{Keyed: 1, Encoded: 2, Skipped: 3, Tagged: 4}
	w.Assigned = 5
	(w.OpAssigned) += 6
	w.Incremented++
	w.Decremented--
	r.Dst += r.Src
	k := lib.Kept{}
	k.Written = 7
	return w.Read + lib.Stale{}.Read
}
