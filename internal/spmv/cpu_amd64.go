//go:build !purego && !ihtlchecked && !race

package spmv

// HasAVX2 reports whether the CPU has AVX2 and the OS saves the ymm
// state across context switches (cpu_amd64.s). It is the one CPU check
// of the module's AVX2 bodies: internal/core's lane cells and
// internal/analytics' PPR row op. The purego, ihtlchecked and race
// builds leave this file out (cpu_other.go) and report false, so they
// run every body's Go twin.
func HasAVX2() bool
