//go:build !ihtlchecked

// Package unchecked provides bounds-check-free slice access for the
// //ihtl:nobce kernels. The flipped push, packed-row decode and sparse
// pull loops index by graph data —
// vertex IDs, CSR offsets, byte cursors — that no bounds-check-
// elimination analysis can prove in range, so in safe Go every gather
// and scatter in those loops pays a per-edge check. These helpers
// perform the access without it; the ihtlvet -bce gate then pins the
// annotated kernels bounds-check free.
//
// Safety rests on the construction invariants, not on luck: BuildIHTL
// produces indices below the lengths of the slices the kernels pair
// them with, and data of external origin (a v2 engine file) must pass
// Chunked.Validate / parseV2's structural checks before any kernel
// touches it. Code outside the //ihtl:nobce kernel set must not use
// this package.
//
// Building with -tags=ihtlchecked swaps every helper for its checked
// equivalent (see checked.go), restoring index panics for debugging a
// suspect build or a new kernel.
package unchecked

import "unsafe"

// PtrAt returns &s[i] without a bounds check.
//
//ihtl:noalloc
func PtrAt[T any](s []T, i int) *T {
	var zero T
	return (*T)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(s)), uintptr(i)*unsafe.Sizeof(zero)))
}

// At returns s[i] without a bounds check.
//
//ihtl:noalloc
func At[T any](s []T, i int) T { return *PtrAt(s, i) }

// SetAt performs s[i] = v without a bounds check.
//
//ihtl:noalloc
func SetAt[T any](s []T, i int, v T) { *PtrAt(s, i) = v }

// AddAt performs s[i] += v without a bounds check.
//
//ihtl:noalloc
func AddAt(s []float64, i int, v float64) { *PtrAt(s, i) += v }

// SliceAt returns s[i:i+n:i+n] without a bounds check.
//
//ihtl:noalloc
func SliceAt[T any](s []T, i, n int) []T { return unsafe.Slice(PtrAt(s, i), n) }

// Lanes4At returns s[i:i+4] as an array pointer without a bounds
// check: the handle the width-4 lane kernels update a hub's or a row's
// lanes through, every lane at a constant offset.
//
//ihtl:noalloc
func Lanes4At(s []float64, i int) *[4]float64 { return (*[4]float64)(unsafe.Pointer(PtrAt(s, i))) }

// Lanes8At is Lanes4At for the width-8 lane kernels.
//
//ihtl:noalloc
func Lanes8At(s []float64, i int) *[8]float64 { return (*[8]float64)(unsafe.Pointer(PtrAt(s, i))) }

// Load32 returns the little-endian uint32 at s[i:i+4] without a bounds
// check and at any alignment: the packed-row gap decode reads a 1-4
// byte gap with one load and a mask. The four byte loads of the body
// are what the compiler fuses into a single unaligned load on hosts
// that allow one (amd64, arm64, ...); elsewhere, and on big-endian
// hosts, they stay byte-composed, so the result is the same everywhere.
//
//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func Load32(s []byte, i int) uint32 {
	p := (*[4]byte)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(s)), i))
	return uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24
}
