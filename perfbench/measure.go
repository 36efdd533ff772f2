package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"mpcp/internal/campaign"
)

// A harness runs one workload's campaign. Each iteration is a closed
// loop: one campaign.Run of the whole spec, started only after the
// previous one finished.
type harness interface {
	// setup prepares the executor for a series of iterations; it is
	// timed as a setup_s sample together with building and validating
	// the spec.
	setup(spec *campaign.Spec) error
	// reset readies the executor for the next iteration, untimed.
	reset() error
	// run executes an iteration, writing the results file to path as
	// `rtsweep -out path` does.
	run(spec *campaign.Spec, path string) (*campaign.Campaign, error)
	// check reports an executor output that did not hold in the last
	// iteration.
	check() error
	close() error
}

// localHarness runs campaigns on the in-process LocalPool.
type localHarness struct{}

func (localHarness) setup(*campaign.Spec) error { return nil }

func (localHarness) reset() error { return nil }

func (localHarness) run(spec *campaign.Spec, path string) (*campaign.Campaign, error) {
	return campaign.Run(spec, campaign.Options{Workers: computeWorkers, ResultsPath: path})
}

func (localHarness) check() error { return nil }

func (localHarness) close() error { return nil }

func newHarness(w benchWorkload, dir string, dt *distTracer) (harness, error) {
	if w.remote {
		return newLoopback(dir, dt)
	}
	return localHarness{}, nil
}

// minIterations keeps the medians meaningful when one iteration takes a
// large share of the run.
const minIterations = 3

// A run takes setupSamples set-up samples: one before the warm-up and
// the rest spread evenly over the timed window, so that their median
// sees the machine as the iterations do. Each iteration uses the latest
// set-up. A sample is the mean time of set-ups repeated for at least
// minSetupSample: an in-process set-up takes tens of microseconds, and
// timed alone it reads fast or slow with the state of the heap and the
// processor at that instant.
const (
	setupSamples   = 10
	minSetupSample = 10 * time.Millisecond
)

// iteration is one measured campaign.Run.
type iteration struct {
	points  int
	rssMiB  float64
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

// outcome is what a run reports: metric values, the points attempted
// and failed, and every output check that did not hold.
type outcome struct {
	values    map[string]float64
	attempted int
	failed    int
	problems  []string
	// notes are printed with the readable report.
	notes []string
}

func (o *outcome) problemf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// measure sets up, runs an untimed warm-up, then timed iterations for
// at least `seconds` with further set-ups between them, and reports the
// medians of the per-iteration figures and of the set-up times. Every iteration's results file must
// have the same digest; the reference and (for loopback) in-process
// checks follow the timing.
func measure(w benchWorkload, seed int64, seconds time.Duration, dir string) (*outcome, error) {
	h, err := newHarness(w, dir, nil)
	if err != nil {
		return nil, err
	}
	defer h.close()
	out := &outcome{}
	path := filepath.Join(dir, "results.jsonl")
	var setups []float64
	sample := func() error {
		t0 := time.Now()
		n := 0
		for ; n == 0 || time.Since(t0) < minSetupSample; n++ {
			spec, err := w.build(seed)
			if err != nil {
				return err
			}
			if err := h.setup(spec); err != nil {
				return err
			}
		}
		setups = append(setups, time.Since(t0).Seconds()/float64(n))
		return nil
	}
	if err := sample(); err != nil {
		return nil, err
	}
	var iters []iteration
	var digest string
	rss, err := startRSSSampler()
	if err != nil {
		return nil, err
	}
	defer rss.close()
	one := func(timed bool) error {
		spec, err := w.build(seed)
		if err != nil {
			return err
		}
		if err := h.reset(); err != nil {
			return err
		}
		points := len(spec.Points())

		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		rss.reset()
		cpu0 := cpuTime()
		t1 := time.Now()
		c, err := h.run(spec, path)
		wall := time.Since(t1)
		cpu1 := cpuTime()
		peak := rss.peakMiB()
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		if err := h.check(); err != nil {
			out.problemf("%v", err)
		}
		d, err := fileDigest(path)
		if err != nil {
			return err
		}
		if digest == "" {
			digest = d
		} else if d != digest {
			out.problemf("iteration %d: results digest %s differs from the first iteration's %s", len(iters)+1, d, digest)
		}
		if timed {
			iters = append(iters, iteration{
				points:  points,
				rssMiB:  peak,
				wall:    wall,
				cpu:     cpu1 - cpu0,
				mallocs: m1.Mallocs - m0.Mallocs,
				bytes:   m1.TotalAlloc - m0.TotalAlloc,
			})
			out.attempted += points
			out.failed += failedPoints(c, points)
		}
		return nil
	}
	if err := one(false); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	start := time.Now()
	for len(iters) < minIterations || time.Since(start) < seconds {
		if len(setups) < setupSamples && time.Since(start) >= seconds*time.Duration(len(setups))/setupSamples {
			if err := sample(); err != nil {
				return nil, err
			}
		}
		if err := one(true); err != nil {
			return nil, err
		}
	}
	if err := h.close(); err != nil {
		return nil, err
	}
	if lb, ok := h.(*loopback); ok {
		// A stale lease means a shard was computed twice.
		out.failed += lb.staleLeases
	}

	if w.remote {
		local, _, err := runInProcess(w.spec(seed), filepath.Join(dir, "inprocess.jsonl"))
		if err != nil {
			return nil, err
		}
		if local != digest {
			out.problemf("loopback results digest %s differs from the in-process run's %s", digest, local)
		}
	}
	if err := checkReference(w, dir); err != nil {
		out.problemf("%v", err)
	}

	var pps, cpuMs, allocs, kb, rssMiB []float64
	for _, it := range iters {
		n := float64(it.points)
		pps = append(pps, n/it.wall.Seconds())
		cpuMs = append(cpuMs, float64(it.cpu.Microseconds())/1000/n)
		allocs = append(allocs, float64(it.mallocs)/n)
		kb = append(kb, float64(it.bytes)/1024/n)
		rssMiB = append(rssMiB, it.rssMiB)
	}
	out.notes = append(out.notes, fmt.Sprintf("%d timed iterations: points_per_s min %.1f p25 %.1f median %.1f p75 %.1f max %.1f",
		len(pps), percentile(pps, 0), percentile(pps, 25), median(pps), percentile(pps, 75), percentile(pps, 100)))
	out.values = map[string]float64{
		"points_per_s":       median(pps),
		"cpu_ms_per_point":   median(cpuMs),
		"allocs_per_point":   median(allocs),
		"alloc_kb_per_point": median(kb),
		"max_rss_mb":         median(rssMiB),
		"setup_s":            median(setups),
	}
	return out, nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
