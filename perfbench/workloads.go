package main

import (
	"fmt"
	"time"

	"mpcp/internal/campaign"
	"mpcp/internal/dist"
)

// Fixed execution settings. They are stamped on every output, so
// numbers taken under different settings are visibly incomparable.
const (
	// computeWorkers is the number of goroutines that evaluate points:
	// the LocalPool size in-process, and the number of dist.Worker
	// loops (each with Workers: 1) over loopback.
	computeWorkers = 2
	// shardSize is the coordinator's units per shard.
	shardSize = dist.DefaultShardSize
	// workerPoll and clientPoll replace the dist defaults (500 ms and
	// 200 ms), which would make the loopback workload measure sleeps.
	workerPoll = 2 * time.Millisecond
	clientPoll = 5 * time.Millisecond
	// referenceSeed selects the spec whose results digest and simulated
	// tick count are pinned below.
	referenceSeed = 0
)

// A workload is one fixed campaign spec, parameterised only by the
// benchmark seed, plus the executor that runs it.
type benchWorkload struct {
	name string
	spec func(seed int64) *campaign.Spec
	// remote drives campaign.Run through dist.RemoteShards against an
	// in-process coordinator on a 127.0.0.1 listener.
	remote bool
}

// pin is a workload's expected output for the reference seed: the
// sha256 of its results file and the total simulated ticks.
type pin struct {
	Digest string
	Ticks  int64
}

// pins are the outputs of the referenceSeed spec of each workload, as
// printed by `perfbench pin`. A change that alters results on purpose
// re-pins them; any other mismatch fails the run. Workloads without a
// pin (the shrunken ones the tests build) skip the pinned check.
var pins = map[string]pin{
	"sim-dense":       {Digest: "39f780f666dc93eaa28ac1c07cae9e02fb53f5076e9cef83e621435f69596a4a", Ticks: 916773},
	"analysis-wide":   {Digest: "6601fdf7c0d7d8434c5b82eff631d03f4dceb80a1bd6fdb9a40e1164cb8550f6", Ticks: 0},
	"sweepd-loopback": {Digest: "456fee9f5cadfdcba9e240ab951ec00f3c542d8a8634f678a851087c54aec9bb", Ticks: 1920000},
}

// workloads are the benchmark's workloads; README.md gives the reason
// for each.
var workloads = []benchWorkload{
	{name: "sim-dense", spec: simDenseSpec},
	{name: "analysis-wide", spec: analysisWideSpec},
	{name: "sweepd-loopback", spec: sweepdSpec, remote: true},
}

func lookupWorkload(name string) (benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q (choose from %v)", name, names)
}

// build returns the workload's spec for seed with defaults filled in,
// validated as campaign.Run would.
func (w benchWorkload) build(seed int64) (*campaign.Spec, error) {
	spec := w.spec(seed)
	spec.FillDefaults()
	return spec, spec.Validate()
}

// baseSeed maps the benchmark seed to the spec's BaseSeed. BaseSeed 0
// means "default" to campaign.FillDefaults, so seeds are shifted by one.
func baseSeed(seed int64) int64 { return seed + 1 }

func simDenseSpec(seed int64) *campaign.Spec {
	s := campaign.DefaultSpec()
	s.Name = "sim-dense"
	s.BaseSeed = baseSeed(seed)
	s.SeedsPerPoint = 4
	s.Protocols = []string{"mpcp", "dpcp", "hybrid", "msrp", "fmlp"}
	s.Utils = []float64{0.4, 0.5, 0.6, 0.7}
	s.Procs = []int{4}
	s.TasksPerProc = []int{4}
	s.CSMax = []int{4, 8}
	s.Periods = []int{100, 150, 200, 250, 300, 400, 600}
	s.Stagger = true
	s.Simulate = true
	s.SimTickBudget = 50_000
	return s
}

func analysisWideSpec(seed int64) *campaign.Spec {
	s := campaign.DefaultSpec()
	s.Name = "analysis-wide"
	s.BaseSeed = baseSeed(seed)
	s.SeedsPerPoint = 10
	s.Protocols = []string{"all"}
	s.Utils = []float64{0.3, 0.4, 0.5, 0.6, 0.7}
	s.Procs = []int{4, 8}
	s.TasksPerProc = []int{4, 8}
	s.CSMax = []int{2, 8}
	return s
}

func sweepdSpec(seed int64) *campaign.Spec {
	s := campaign.DefaultSpec()
	s.Name = "sweepd-loopback"
	s.BaseSeed = baseSeed(seed)
	s.SeedsPerPoint = 2
	s.Protocols = []string{"mpcp", "dpcp", "msrp", "fmlp"}
	s.Utils = nil
	for pct := 30; pct <= 80; pct += 2 {
		s.Utils = append(s.Utils, float64(pct)/100)
	}
	s.Procs = []int{2, 4}
	s.TasksPerProc = []int{3}
	s.CSMax = []int{2, 4, 6, 8}
	s.Simulate = true
	s.SimTickBudget = 5_000
	return s
}

// warmSpec is the part of a loopback spec that set-up pre-computes into
// the coordinator's cache: the lower half of the utilisation axis.
func warmSpec(s *campaign.Spec) *campaign.Spec {
	cp := *s
	cp.Name = s.Name + "-warm"
	cp.Utils = s.Utils[:len(s.Utils)/2]
	return &cp
}
