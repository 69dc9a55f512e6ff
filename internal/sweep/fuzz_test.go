package sweep

import "testing"

// FuzzParseCellRef feeds arbitrary -cell flag values to ParseCellRef: bad
// refs must be errors, never panics, and an accepted ref must name a cell
// that its String form parses back to.
func FuzzParseCellRef(f *testing.F) {
	for _, s := range []string{"fig12:3", "tailvsalloc/xapian:12", "a:b:1", ":3", "lab:", "lab:-1", "lab:+7", "lab:007"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		ref, err := ParseCellRef(s)
		if err != nil {
			return
		}
		if ref.Label == "" || ref.Cell < 0 {
			t.Fatalf("ParseCellRef(%q) = %+v", s, ref)
		}
		back, err := ParseCellRef(ref.String())
		if err != nil || back != ref {
			t.Fatalf("ParseCellRef(%q) = %+v, but its String %q parses to %+v, %v", s, ref, ref.String(), back, err)
		}
	})
}
