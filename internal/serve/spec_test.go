package serve

import (
	"context"
	"strings"
	"testing"
)

// TestFingerprintExcludesClient: who submitted must not change the
// fingerprint — that is what makes cross-client dedupe safe.
func TestFingerprintExcludesClient(t *testing.T) {
	a := &Spec{Type: "compare", Client: "alice", Design: "jumanji", LC: "xapian", Load: "high", VMs: 4, Epochs: 10, Warmup: 2, Seed: 1}
	b := *a
	b.Client = "bob"
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("client leaked into fingerprint:\n a: %s\n b: %s", a.Fingerprint(), b.Fingerprint())
	}
	if a.ClientKey() != "alice" || b.ClientKey() != "bob" {
		t.Fatalf("client keys: %q %q", a.ClientKey(), b.ClientKey())
	}
	if (&Spec{}).ClientKey() != "anon" {
		t.Fatalf("empty client: got %q, want anon", (&Spec{}).ClientKey())
	}
}

// TestNormalizeThenFingerprint: a defaulted spec and its explicit
// spelling normalize to the same fingerprint, so both dedupe together.
func TestNormalizeThenFingerprint(t *testing.T) {
	reg := Builtins()
	rn, ok := reg.Lookup("compare")
	if !ok {
		t.Fatal("no compare runner")
	}
	short := &Spec{Type: "compare"}
	if err := rn.Validate(short); err != nil {
		t.Fatal(err)
	}
	full := &Spec{Type: "compare", Design: "jumanji", LC: "xapian", Load: "high", VMs: 4,
		Epochs: short.Epochs, Warmup: short.Warmup, Seed: 1}
	if err := rn.Validate(full); err != nil {
		t.Fatal(err)
	}
	if short.Fingerprint() != full.Fingerprint() {
		t.Fatalf("defaults drifted:\n short: %s\n full:  %s", short.Fingerprint(), full.Fingerprint())
	}
	// And changing anything result-affecting changes it.
	seeded := *full
	seeded.Seed = 2
	if seeded.Fingerprint() == full.Fingerprint() {
		t.Fatal("seed did not change the fingerprint")
	}
}

func TestValidateRejects(t *testing.T) {
	reg := Builtins()
	cases := []struct {
		name string
		sp   *Spec
		want string
	}{
		{"compare", &Spec{Type: "compare", Load: "sideways"}, "load"},
		{"compare", &Spec{Type: "compare", Design: "warp-drive"}, "design"},
		{"compare", &Spec{Type: "compare", Fig: 12}, "no fig"},
		{"compare", &Spec{Type: "compare", LC: "nosuch"}, `unknown latency-critical app "nosuch"`},
		{"compare", &Spec{Type: "compare", VMs: 3}, "unsupported VM count 3"},
		{"figure", &Spec{Type: "figure", Fig: 3}, "no figure 3"},
		{"figure", &Spec{Type: "figure", Fig: 12, Warmup: 50, Epochs: 10}, "warmup"},
		{"table", &Spec{Type: "table", Table: 9}, "no table 9"},
	}
	for _, c := range cases {
		rn, ok := reg.Lookup(c.name)
		if !ok {
			t.Fatalf("no %s runner", c.name)
		}
		err := rn.Validate(c.sp)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s %+v: got %v, want error containing %q", c.name, c.sp, err, c.want)
		}
	}
}

func TestRegistryRegister(t *testing.T) {
	reg := Builtins()
	got := reg.Types()
	want := []string{"compare", "figure", "table"}
	if len(got) != len(want) {
		t.Fatalf("types: got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("types: got %v, want %v", got, want)
		}
	}
	if err := reg.Register(&Runner{Name: "compare", Validate: func(*Spec) error { return nil },
		Run: func(context.Context, *Spec, Env) ([]byte, error) { return nil, nil }}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := reg.Register(&Runner{}); err == nil {
		t.Fatal("empty runner accepted")
	}
}
