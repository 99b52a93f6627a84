package lib

import "fmt"

// Used is called from the root package.
func Used() int { return Referenced() }

func Unused() {} // want `exported func Unused is referenced by no non-test code`

type Orphan struct{} // want `exported type Orphan is referenced`

func (o *Orphan) Method() {} // want `exported method Orphan.Method is referenced`

const Lost = 1 // want `exported const Lost is referenced`

var Forgotten int // want `exported var Forgotten is referenced`

// OnlyTested is called from lib_test.go alone.
func OnlyTested() {} // want `exported func OnlyTested is referenced`

// Recursive calls nothing but itself.
func Recursive(n int) int { // want `exported func Recursive is referenced`
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Config is built by the root package, which never reads Unread.
type Config struct {
	Set    int
	Unread int // want `exported field Config.Unread is read by no non-test code`
}

// Written is built and updated by the root package, which reads only
// Read: a write is not a use, but a json tag is a reader.
type Written struct {
	Keyed       int // want `exported field Written.Keyed is read by no non-test code`
	Assigned    int // want `exported field Written.Assigned is read`
	OpAssigned  int // want `exported field Written.OpAssigned is read`
	Incremented int // want `exported field Written.Incremented is read`
	Decremented int // want `exported field Written.Decremented is read`
	Read        int
	Encoded     int `json:"encoded"`
	Skipped     int `json:"-"`     // want `exported field Written.Skipped is read`
	Tagged      int `xml:"tagged"` // want `exported field Written.Tagged is read`
}

// Reads has Dst op-assigned from Src: the right side reads Src.
type Reads struct {
	Src int
	Dst int // want `exported field Reads.Dst is read`
}

// Kept waives a field that is only written.
type Kept struct {
	//ihtl:allow-dead kept for the fixture
	Written int
}

// Stale waives a field the root package reads.
type Stale struct {
	//ihtl:allow-dead stale
	Read int // want `//ihtl:allow-dead on field Stale.Read, which non-test code reads; drop the waiver`
}

// Pub is aliased by the root package.
type Pub struct {
	Field int
}

// Method is public through the alias.
func (Pub) Method() {}

// Item implements fmt.Stringer; String is called only through it.
type Item struct{ v int }

func (i Item) String() string { return fmt.Sprint(i.v) }

// Items implements sort.Interface.
type Items []Item

func (s Items) Len() int           { return len(s) }
func (s Items) Less(i, j int) bool { return s[i].v < s[j].v }
func (s Items) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// Waived is kept on purpose.
//
//ihtl:allow-dead kept for the fixture
func Waived() {}

// Referenced is called from Used, so its waiver waives nothing.
//
//ihtl:allow-dead stale
func Referenced() int { return 0 } // want `//ihtl:allow-dead on func Referenced, which non-test code references; drop the waiver`
