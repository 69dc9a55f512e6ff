package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

const (
	// defaultSeed is the seed the figures are published at; heldOutSeed is
	// a second seed with recorded digests, for checking a later claim on
	// inputs it was not tuned on.
	defaultSeed = 1
	heldOutSeed = 7
	digestsPath = "e2ebench/digests.json"
)

// digestBook holds the reference SHA-256 digests of the benchmark's outputs
// for the default and the held-out seed.
type digestBook struct {
	DefaultSeed int64 `json:"default_seed"`
	HeldOutSeed int64 `json:"held_out_seed"`
	// Figures maps "<workload>/<seed>" to the digest of the bytes one
	// figure regeneration renders (plus, for observed-5x4, the report).
	Figures map[string]string `json:"figures"`
	// Serve maps a serve spec fingerprint to the digest of its result body.
	Serve map[string]string `json:"serve"`
}

func loadDigests(path string) (*digestBook, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading reference digests: %w", err)
	}
	var book digestBook
	if err := json.Unmarshal(data, &book); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &book, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// outputs checks a run's outputs: each must match the reference digest for
// its key, when one is recorded, and the first output of the same key in
// this run (a rerun or a deduplicated read must reproduce it exactly).
type outputs struct {
	ref  map[string]string
	seen map[string]string
}

func newOutputs(ref map[string]string) *outputs {
	return &outputs{ref: ref, seen: map[string]string{}}
}

// verify returns "" when out is correct for key, else the problem.
func (o *outputs) verify(key string, out []byte) string {
	d := digest(out)
	if want, ok := o.ref[key]; ok && d != want {
		return fmt.Sprintf("%s: output digest %.12s differs from the recorded %.12s", key, d, want)
	}
	if first, ok := o.seen[key]; ok && d != first {
		return fmt.Sprintf("%s: output digest %.12s differs from this run's first output %.12s", key, d, first)
	}
	o.seen[key] = d
	return ""
}

// recordDigests recomputes every reference digest and rewrites the file.
func recordDigests(report string, log io.Writer) error {
	book := &digestBook{
		DefaultSeed: defaultSeed, HeldOutSeed: heldOutSeed,
		Figures: map[string]string{}, Serve: map[string]string{},
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(".bench_build", "record-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	for _, seed := range []int64{defaultSeed, heldOutSeed} {
		for _, f := range []*figureWorkload{paper5x4, fleetMesh, observed5x4} {
			b := &bench{seed: seed, work: work, report: report, log: log, metrics: map[string]float64{}}
			u, err := f.unit(b, f.options(seed), nil)
			if err != nil {
				return err
			}
			book.Figures[f.key(seed)] = digest(u.out)
			fmt.Fprintf(log, "recorded %s\n", f.key(seed))
		}
		if err := recordServeDigests(seed, book.Serve); err != nil {
			return err
		}
		fmt.Fprintf(log, "recorded serve-mix/%d (%d specs so far)\n", seed, len(book.Serve))
	}
	data, err := json.MarshalIndent(book, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestsPath, append(data, '\n'), 0o644)
}
