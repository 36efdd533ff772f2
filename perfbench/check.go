package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"mpcp/internal/campaign"
	"mpcp/internal/obs"
)

// fileDigest returns the hex sha256 of a file's bytes.
func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("digest %s: %w", path, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checkDigest fails unless the file's sha256 is want.
func checkDigest(path, want string) error {
	got, err := fileDigest(path)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("results digest %s, want %s", got, want)
	}
	return nil
}

// runInProcess runs spec on a LocalPool, as `rtsweep -out path` does,
// and returns the results file's digest and the total simulated ticks.
func runInProcess(spec *campaign.Spec, path string) (digest string, ticks int64, err error) {
	reg := obs.NewRegistry()
	if _, err := campaign.Run(spec, campaign.Options{Workers: computeWorkers, ResultsPath: path, Metrics: reg}); err != nil {
		return "", 0, err
	}
	digest, err = fileDigest(path)
	return digest, reg.Counter("sim_ticks_total").Value(), err
}

// checkReference runs the workload's reference-seed spec in-process and
// compares its results digest and simulated ticks with the pin. Both
// are deterministic, so any difference means the program's output
// changed.
func checkReference(w benchWorkload, dir string) error {
	p, ok := pins[w.name]
	if !ok {
		return nil
	}
	path := filepath.Join(dir, "reference.jsonl")
	if _, ticks, err := runInProcess(w.spec(referenceSeed), path); err != nil {
		return err
	} else if ticks != p.Ticks {
		return fmt.Errorf("%s reference run simulated %d ticks, pinned %d", w.name, ticks, p.Ticks)
	}
	if err := checkDigest(path, p.Digest); err != nil {
		return fmt.Errorf("%s reference run: %w", w.name, err)
	}
	return nil
}

// failedPoints counts the points of an iteration that failed: no
// result, a point-level error or degraded trials.
func failedPoints(c *campaign.Campaign, points int) int {
	if c == nil {
		return points
	}
	failed := points - len(c.Results)
	for _, r := range c.Results {
		if r == nil || r.Err != "" || r.Failures() > 0 {
			failed++
		}
	}
	return failed
}
