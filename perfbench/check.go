package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"redsoc/internal/baseline"
	"redsoc/internal/harness"
	"redsoc/internal/ooo"
)

// reference holds digests of the simulated statistics of every grid cell
// and every spec-long simulation for the default seed at full size. Any
// change to the timing model moves them; re-record after a deliberate one
// with `bash perfbench/run.sh -record perfbench/reference.json`.
type reference struct {
	Seed     int64             `json:"seed"`
	Grid     map[string]string `json:"grid"`
	SpecLong map[string]string `json:"spec_long"`
}

//go:embed reference.json
var referenceJSON []byte

// loadReference parses the embedded reference digests.
func loadReference() (*reference, error) {
	var r reference
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return nil, fmt.Errorf("perfbench: reference.json: %w", err)
	}
	return &r, nil
}

func digest(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: digest: %v", err)) // the digested types are plain structs and maps
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// runDigest covers one simulation's cycles and every Result.Metrics counter.
func runDigest(r *ooo.Result) string {
	return digest(r.Metrics("", "", "").Counters)
}

// cellKey names a grid cell in the reference.
func cellKey(c harness.Cell) string {
	return fmt.Sprintf("%s/%s/%s", c.Benchmark.Class, c.Benchmark.Name, c.Core)
}

// cellDigest covers a cell's threshold, the counters of its five simulated
// policies and its TS result.
func cellDigest(c harness.Cell) string {
	m := c.Cmp
	return digest(struct {
		Threshold int
		Runs      map[string]string
		TS        baseline.TSResult
	}{c.Threshold, map[string]string{
		"baseline":  runDigest(m.Baseline),
		"redsoc":    runDigest(m.Redsoc),
		"mos":       runDigest(m.MOS),
		"loaddelay": runDigest(m.LoadDelay),
		"speclsq":   runDigest(m.SpecLSQ),
	}, m.TS})
}

// gridDigests digests every cell of a grid.
func gridDigests(g *harness.Grid) map[string]string {
	out := make(map[string]string, len(g.Cells))
	for _, c := range g.Cells {
		out[cellKey(c)] = cellDigest(c)
	}
	return out
}

// mismatches counts the entries of got that want does not hold with the
// same digest, plus the entries of want that got lacks.
func mismatches(got, want map[string]string) int {
	n := 0
	for k, d := range got {
		if want[k] != d {
			n++
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			n++
		}
	}
	return n
}

// record runs grid-full and spec-long once each at the default seed and full
// size and writes their digests to path.
func record(path string, c config) error {
	c.seed, c.ref, c.seconds, c.traced = 0, nil, 0, false
	ref := reference{Seed: 0}
	for _, w := range []string{"grid-full", "spec-long"} {
		c.workload = w
		res, err := run(c)
		if err != nil {
			return err
		}
		if res.failed > 0 {
			return fmt.Errorf("perfbench: %s: %d of %d operations failed; not recording", w, res.failed, res.attempted)
		}
		if w == "grid-full" {
			ref.Grid = res.digests
		} else {
			ref.SpecLong = res.digests
		}
	}
	data, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
