//go:build ihtlchecked

// Checked fallbacks for the unchecked kernel accessors (see
// unchecked.go). Built with -tags=ihtlchecked, every accessor is the
// plain indexing expression, so a corrupt index panics at the access
// instead of corrupting memory — the debugging configuration for a
// suspect build or a kernel under development.
package unchecked

import "encoding/binary"

// PtrAt returns &s[i], checked.
//
//ihtl:noalloc
func PtrAt[T any](s []T, i int) *T { return &s[i] }

// At returns s[i], checked.
//
//ihtl:noalloc
func At[T any](s []T, i int) T { return s[i] }

// SetAt performs s[i] = v, checked.
//
//ihtl:noalloc
func SetAt[T any](s []T, i int, v T) { s[i] = v }

// AddAt performs s[i] += v, checked.
//
//ihtl:noalloc
func AddAt(s []float64, i int, v float64) { s[i] += v }

// SliceAt returns s[i:i+n:i+n], checked.
//
//ihtl:noalloc
func SliceAt[T any](s []T, i, n int) []T { return s[i : i+n : i+n] }

// Lanes4At returns s[i:i+4] as an array pointer, checked: the
// slice-to-array-pointer conversion panics on a slice shorter than 4.
//
//ihtl:noalloc
func Lanes4At(s []float64, i int) *[4]float64 { return (*[4]float64)(s[i:]) }

// Lanes8At returns s[i:i+8] as an array pointer, checked.
//
//ihtl:noalloc
func Lanes8At(s []float64, i int) *[8]float64 { return (*[8]float64)(s[i:]) }

// Load32 returns the little-endian uint32 at s[i:i+4], checked.
//
//ihtl:noalloc
func Load32(s []byte, i int) uint32 { return binary.LittleEndian.Uint32(s[i:]) }
