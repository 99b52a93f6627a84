package cache

// AddressSpace hands out non-overlapping simulated address regions for
// the arrays a kernel touches, so trace-driven simulations can refer
// to "element i of array X" without aliasing between arrays.
type AddressSpace struct {
	next uint64
}

// Region is a named contiguous range of simulated addresses with a
// fixed element size.
type Region struct {
	Base     uint64
	ElemSize uint64
}

// Alloc reserves a region of n elements of elemSize bytes, aligned to
// 4096 (page) boundaries to keep regions from sharing lines.
func (a *AddressSpace) Alloc(n int, elemSize int) Region {
	const align = 4096
	a.next = (a.next + align - 1) &^ (align - 1)
	r := Region{Base: a.next, ElemSize: uint64(elemSize)}
	a.next += uint64(n) * uint64(elemSize)
	return r
}

// Addr returns the simulated address of element i.
func (r Region) Addr(i int) uint64 {
	return r.Base + uint64(i)*r.ElemSize
}
