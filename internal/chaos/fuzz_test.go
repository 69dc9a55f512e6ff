package chaos

import "testing"

// FuzzParse feeds arbitrary -chaos flag specs to Parse: bad specs must be
// errors, never panics, and an accepted spec must render (String) to a spec
// that parses back to the same arms.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"", "curve-nan@0.25,panic-cell=7", " , ", "curve-nan@1", "curve-nan@0",
		"panic-cell=x", "bogus@0.5", "curve-nan@1e-300", "panic-cell=-9223372036854775808",
		"curve-nan@NaN",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		in, err := Parse(spec, 1)
		if err != nil || in == nil {
			return
		}
		for _, a := range in.arms {
			if !a.pinned && !(a.rate > 0 && a.rate <= 1) {
				t.Fatalf("Parse(%q) armed rate %v outside (0, 1]", spec, a.rate)
			}
		}
		back, err := Parse(in.String(), 1)
		if err != nil {
			t.Fatalf("Parse(%q).String() = %q does not parse: %v", spec, in.String(), err)
		}
		if back.String() != in.String() {
			t.Fatalf("round trip of %q changed arms: %q, then %q", spec, in.String(), back.String())
		}
	})
}
