package serve

import (
	"encoding/json"
	"testing"
)

// FuzzSpec feeds arbitrary request bodies through admission's spec path:
// decode, registry lookup, Validate, Fingerprint and ClientKey. Bad specs
// must be errors, never panics, and validating an already-normalized spec
// must not change its fingerprint (resume re-validates persisted specs).
func FuzzSpec(f *testing.F) {
	for _, s := range []string{
		`{"type":"compare","design":"jumanji","epochs":8,"warmup":2,"seed":3}`,
		`{"type":"compare","design":"all","lc":"datacenter","vms":9}`,
		`{"type":"figure","fig":12,"client":"alice"}`,
		`{"type":"table","table":3,"mixes":2}`,
		`{"type":"figure","fig":-1}`,
		`{"type":"compare","epochs":-5,"warmup":9}`,
		`{"type":"nope"}`,
		`[]`,
		`{"type":"compare","lc":"nosuch"}`,
		`{"type":"compare","vms":3}`,
	} {
		f.Add([]byte(s))
	}
	reg := Builtins()
	f.Fuzz(func(t *testing.T, body []byte) {
		var sp Spec
		if err := json.Unmarshal(body, &sp); err != nil {
			return
		}
		if sp.ClientKey() == "" {
			t.Fatal("empty client key")
		}
		rn, ok := reg.Lookup(sp.Type)
		if !ok {
			return
		}
		if err := rn.Validate(&sp); err != nil {
			return
		}
		fp := sp.Fingerprint()
		again := sp
		if err := rn.Validate(&again); err != nil {
			t.Fatalf("re-validating normalized spec %+v: %v", sp, err)
		}
		if again.Fingerprint() != fp {
			t.Fatalf("re-validation changed the fingerprint: %s, then %s", fp, again.Fingerprint())
		}
	})
}
