//go:build !amd64 || purego || ihtlchecked || race

package spmv

// HasAVX2 reports false: this build has no assembly (cpu_amd64.go).
func HasAVX2() bool { return false }
