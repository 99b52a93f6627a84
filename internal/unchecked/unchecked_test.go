package unchecked

import "testing"

// TestAccessorsMatchCheckedIndexing pins every accessor to the
// semantics of the plain indexing expression it replaces, for
// in-range indices. The suite runs identically under the default
// build and -tags=ihtlchecked, so both implementations are held to
// the same contract.
func TestAccessorsMatchCheckedIndexing(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}

	for i := range s {
		if got := At(s, i); got != s[i] {
			t.Errorf("At(s, %d) = %v, want %v", i, got, s[i])
		}
		if got := PtrAt(s, i); got != &s[i] {
			t.Errorf("PtrAt(s, %d) = %p, want %p", i, got, &s[i])
		}
	}

	SetAt(s, 1, -21)
	if s[1] != -21 {
		t.Errorf("SetAt: s[1] = %v, want -21", s[1])
	}

	AddAt(s, 2, 0.5)
	if s[2] != 30.5 {
		t.Errorf("AddAt: s[2] = %v, want 30.5", s[2])
	}

	sub := SliceAt(s, 1, 3)
	if len(sub) != 3 || cap(sub) != 3 {
		t.Fatalf("SliceAt: len/cap = %d/%d, want 3/3", len(sub), cap(sub))
	}
	for j := range sub {
		if &sub[j] != &s[1+j] {
			t.Errorf("SliceAt: element %d does not alias s[%d]", j, 1+j)
		}
	}

	// Writes through the subslice are visible in the parent: same
	// backing array, as with s[i:i+n:i+n].
	sub[0] = 99
	if s[1] != 99 {
		t.Errorf("SliceAt write: s[1] = %v, want 99", s[1])
	}

	// The lane handles alias s[i:i+4] / s[i:i+8], up to the last
	// offset that still has a whole row behind it.
	l := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	for i := 0; i+4 <= len(l); i++ {
		if p := Lanes4At(l, i); &p[0] != &l[i] || &p[3] != &l[i+3] {
			t.Errorf("Lanes4At(l, %d) does not alias l[%d:%d]", i, i, i+4)
		}
	}
	for i := 0; i+8 <= len(l); i++ {
		if p := Lanes8At(l, i); &p[0] != &l[i] || &p[7] != &l[i+7] {
			t.Errorf("Lanes8At(l, %d) does not alias l[%d:%d]", i, i, i+8)
		}
	}
	Lanes4At(l, 6)[3] += 0.5
	if l[9] != 9.5 {
		t.Errorf("Lanes4At write: l[9] = %v, want 9.5", l[9])
	}
}

// TestAccessorsGenericTypes exercises a non-float element type so the
// generic instantiations stay covered.
func TestAccessorsGenericTypes(t *testing.T) {
	u := []uint32{7, 8, 9}
	if got := At(u, 2); got != 9 {
		t.Errorf("At(u, 2) = %d, want 9", got)
	}
	SetAt(u, 0, 42)
	if u[0] != 42 {
		t.Errorf("SetAt: u[0] = %d, want 42", u[0])
	}
	if got := SliceAt(u, 0, 2); len(got) != 2 || got[0] != 42 || got[1] != 8 {
		t.Errorf("SliceAt(u, 0, 2) = %v, want [42 8]", got)
	}
}

// TestLoad32 pins the unaligned little-endian load at every alignment
// of an 8-byte window, including the last offset that still has four
// bytes behind it.
func TestLoad32(t *testing.T) {
	b := []byte{0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef, 0x10, 0x32, 0x54}
	for i := 0; i+4 <= len(b); i++ {
		want := uint32(b[i]) | uint32(b[i+1])<<8 | uint32(b[i+2])<<16 | uint32(b[i+3])<<24
		if got := Load32(b, i); got != want {
			t.Errorf("Load32(b, %d) = %#x, want %#x", i, got, want)
		}
	}
}
