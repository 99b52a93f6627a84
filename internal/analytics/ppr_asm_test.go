//go:build amd64 && linux && !purego && !ihtlchecked && !race

package analytics

import (
	"fmt"
	"math"
	"slices"
	"syscall"
	"testing"
	"unsafe"

	"ihtl/internal/spmv"
	"ihtl/internal/xrand"
)

// The twin differential of PPR's row op: the two AVX2 bodies
// (pprRows8AVX2, pprRows4AVX2), called directly and through
// pprSweep.plainRows, against plainRows running the Go twin, over
// ranges cut the way pprSweep.rows cuts them, bit for bit — ranks,
// contributions and every lane's delta. The assembly's sums, ranks,
// contrib, invDeg and delta each end where a PROT_NONE page begins, and
// the last range ends at the last row, so a read or write past any of
// them faults.

// guardedFloats returns n zero float64s whose backing array ends at a
// page the process may not touch.
func guardedFloats(t *testing.T, n int) []float64 {
	t.Helper()
	size, page := n*8, syscall.Getpagesize()
	rw := (size + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, rw+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[rw:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&mem[rw-size])), n)
}

// rowValues are the values whose bits are fragile: signed zeros,
// infinities, subnormals, the extremes, and NaNs with payloads — quiet
// ones of each sign and a signalling one. Of two NaNs an operation keeps
// its first operand's payload, so NaNs in both sums and ranks (and in a
// delta) show each body keeping the twin's first operands.
var rowValues = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.Float64frombits(0x7ff8_0000_0000_beef), math.Float64frombits(0xfff8_0000_0000_0d0e), math.Float64frombits(0x7ff0_0000_0000_0001),
	math.Float64frombits(1), -math.Float64frombits(1), math.Float64frombits(0x000f_ffff_ffff_ffff),
	-math.MaxFloat64, math.MaxFloat64,
}

// rowVec fills x with rowValues one time in three and finite values of
// mixed sign and magnitude otherwise.
func rowVec(rng *xrand.Xoshiro256, x []float64) {
	for i := range x {
		if rng.Uint64n(3) == 0 {
			x[i] = rowValues[rng.Intn(len(rowValues))]
		} else {
			x[i] = (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(80)-40)
		}
	}
}

// requireRowBits fails unless got and want hold the same bits.
func requireRowBits(t *testing.T, label string, want, got []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d: got %v want %v (bits %x vs %x)", label, i, got[i], want[i], math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// rowRanges returns the ranges the differential sweeps over n rows: the
// empty range and a one-row range at each end and mid-way, and the
// pieces pprSweep.rows leaves between the source rows srcRows — every
// cut, the empty piece between adjacent sources among them — up to n.
func rowRanges(n int, srcRows []int) [][2]int {
	out := [][2]int{{0, 0}, {n / 2, n / 2}, {n, n}, {0, 1}, {n / 2, n/2 + 1}, {n - 1, n}}
	lo := 0
	for _, s := range srcRows {
		out = append(out, [2]int{lo, s})
		lo = s + 1
	}
	return append(out, [2]int{lo, n})
}

func TestPPRSweepAsmMatchesTwin(t *testing.T) {
	if !spmv.HasAVX2() {
		t.Skip("no AVX2 on this CPU: the Go twin is the only arm")
	}
	defer func(on bool) { pprRowAsm = on }(pprRowAsm)
	const n = 613
	rng := xrand.New(38)
	srcRows := []int{0, 1, 2, 40, 41, 97, 300, n - 2}
	for _, k := range []int{4, 8} {
		for _, d := range []float64{0.85, 1, 0, 0.3} {
			label := fmt.Sprintf("k=%d d=%v", k, d)
			sums, ranks, invDeg := make([]float64, n*k), make([]float64, n*k), make([]float64, n)
			rowVec(rng, sums)
			rowVec(rng, ranks)
			for v := range invDeg {
				if v%5 != 0 { // every fifth row dangles
					invDeg[v] = 1 / float64(1+rng.Intn(40))
				}
			}
			for v := 0; v < n; v += 11 { // whole rows of +0.0 sums, and of -0.0 ranks
				clear(sums[v*k : v*k+k])
				for j := 0; j < k; j++ {
					ranks[v*k+j] = math.Copysign(0, -1)
				}
			}
			delta0 := make([]float64, k)
			rowVec(rng, delta0)
			delta0[0] = math.Float64frombits(0x7ff8_0000_0000_0a11) // a NaN delta meets the NaNs the rows add

			// arm is one body's arrays: the twin's (plainRows with pprRowAsm
			// clear), the assembly's called directly on guarded pages, and
			// plainRows' with pprRowAsm set.
			type arm struct {
				sw    pprSweep
				delta []float64
			}
			newArm := func(guard bool) *arm {
				alloc := func(m int) []float64 { return make([]float64, m) }
				if guard {
					alloc = func(m int) []float64 { return guardedFloats(t, m) }
				}
				a := &arm{sw: pprSweep{k: k, damping: d,
					sums: alloc(n * k), ranks: alloc(n * k), contrib: alloc(n * k), invDeg: alloc(n)}, delta: alloc(k)}
				copy(a.sw.sums, sums)
				copy(a.sw.ranks, ranks)
				copy(a.sw.invDeg, invDeg)
				for i := range a.sw.contrib {
					a.sw.contrib[i] = -7.5 // every written lane must be overwritten
				}
				copy(a.delta, delta0)
				return a
			}
			twin, direct, viaSweep := newArm(false), newArm(true), newArm(false)
			body := pprRows8AVX2
			if k == 4 {
				body = pprRows4AVX2
			}
			for _, r := range rowRanges(n, srcRows) {
				pprRowAsm = false
				twin.sw.plainRows(r[0], r[1], twin.delta, nil)
				body(r[0], r[1], d, direct.sw.sums, direct.sw.ranks, direct.sw.contrib, direct.sw.invDeg, direct.delta)
				pprRowAsm = true
				viaSweep.sw.plainRows(r[0], r[1], viaSweep.delta, nil)
				for name, a := range map[string]*arm{"assembly": direct, "plainRows": viaSweep} {
					at := fmt.Sprintf("%s rows [%d,%d) %s", label, r[0], r[1], name)
					requireRowBits(t, at+": ranks", twin.sw.ranks, a.sw.ranks)
					requireRowBits(t, at+": contrib", twin.sw.contrib, a.sw.contrib)
					requireRowBits(t, at+": delta", twin.delta, a.delta)
					requireRowBits(t, at+": sums", sums, a.sw.sums)
				}
			}
			for i, c := range twin.sw.contrib {
				if v := i / k; c == -7.5 && !slices.Contains(srcRows, v) {
					t.Fatalf("%s: row %d never swept: the pieces must cover every row but the sources", label, v)
				}
			}
		}
	}
}
