//go:build ihtlchecked

package unchecked

import "testing"

// TestLanesAtShortSlicePanics pins what the checked build is for: a
// lane handle that would reach past the slice panics at the access.
func TestLanesAtShortSlicePanics(t *testing.T) {
	s := make([]float64, 10)
	for name, f := range map[string]func(){
		"Lanes4At": func() { Lanes4At(s, 7) },
		"Lanes8At": func() { Lanes8At(s, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s past the end of the slice did not panic", name)
				}
			}()
			f()
		}()
	}
}
