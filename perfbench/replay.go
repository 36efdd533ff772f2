package main

import (
	"encoding/json"
	"runtime"
	"strconv"

	"mpcp/internal/analysis"
	"mpcp/internal/campaign"
	"mpcp/internal/obs/span"
	"mpcp/internal/registry"
	"mpcp/internal/sim"
	"mpcp/internal/task"
	"mpcp/internal/workload"
)

// replayer re-evaluates campaign points single-threaded, calling each
// layer's public function in the order campaign.EvaluatePoint does and
// bracketing every call: with a span when tr is set (the timed pass),
// else with exact allocation counts from runtime.ReadMemStats (the
// allocation pass). The traced run checks that its encoded results
// equal EvaluatePoint's byte for byte, so the replay cannot drift from
// the code it stands in for.
type replayer struct {
	spec *campaign.Spec
	tr   *span.Tracer
	// parent is the span the timed pass's layer spans nest under; the
	// caller sets it per point.
	parent span.Context
	calls  map[string]int
	allocs map[string]uint64
	// ticks and skipped total the simulated and fast-path-skipped
	// ticks, as obs.CollectSimSpeed counts them.
	ticks, skipped int64
	before, after  runtime.MemStats
}

func newReplayer(spec *campaign.Spec, tr *span.Tracer) *replayer {
	return &replayer{spec: spec, tr: tr, calls: make(map[string]int), allocs: make(map[string]uint64)}
}

func (rp *replayer) call(name, key string, fn func()) {
	rp.calls[name]++
	if rp.tr == nil {
		runtime.ReadMemStats(&rp.before)
		fn()
		runtime.ReadMemStats(&rp.after)
		rp.allocs[name] += rp.after.Mallocs - rp.before.Mallocs
		return
	}
	sp := rp.tr.Start(rp.parent, name, key)
	fn()
	sp.End()
}

// point evaluates pt and returns its encoded PointResult.
func (rp *replayer) point(pt campaign.Point) ([]byte, error) {
	spec := rp.spec
	res := &campaign.PointResult{
		Key:          pt.Key,
		Protocol:     pt.Protocol,
		Util:         pt.Util,
		Procs:        pt.Procs,
		TasksPerProc: pt.TasksPerProc,
		CSMax:        pt.CSMax,
	}
	var blockSum float64
	var blockTrials int
	for trial := 0; trial < spec.SeedsPerPoint; trial++ {
		res.Trials++
		key := pt.Key + "#" + strconv.Itoa(trial)
		cfg := spec.WorkloadConfig(pt, spec.TrialSeed(pt, trial))
		var sys *task.System
		var err error
		rp.call("workload.generate", key, func() { sys, err = workload.Generate(cfg) })
		if err != nil {
			res.GenFailed++
			continue
		}
		var bounds map[task.ID]*analysis.Bound
		rp.call("registry.analyze", key, func() {
			bounds, err = registry.Analyze(pt.Protocol, sys, registry.AnalyzeOpts{
				DeferredPenalty: spec.DeferredPenalty,
				RemoteSems:      spec.RemoteSems(),
			})
		})
		if err != nil {
			res.AnalysisFailed++
			continue
		}
		var rep *analysis.Report
		rp.call("analysis.schedulability", key, func() { rep, err = analysis.Schedulability(sys, bounds, analysis.Options{}) })
		if err != nil {
			res.AnalysisFailed++
			continue
		}
		if rep.SchedulableUtil {
			res.SchedUtil++
		}
		if rep.SchedulableResponse {
			res.SchedResponse++
		}
		trialMax, trialSum := 0, 0
		for _, t := range sys.Tasks {
			b := bounds[t.ID]
			if b == nil {
				continue
			}
			trialMax = max(trialMax, b.Total)
			trialSum += b.Total
		}
		res.MaxBlocking = max(res.MaxBlocking, trialMax)
		if len(bounds) > 0 {
			blockSum += float64(trialSum) / float64(len(bounds))
			blockTrials++
		}
		if spec.Simulate {
			missed, ok := rp.simulate(key, pt, sys, res)
			if ok && missed && rep.SchedulableResponse {
				res.SimMissedAdmitted++
			}
		}
	}
	if blockTrials > 0 {
		res.MeanBlocking = blockSum / float64(blockTrials)
	}
	var doc []byte
	var err error
	rp.call("campaign.encode", pt.Key, func() { doc, err = json.Marshal(res) })
	return doc, err
}

// simulate is one confirmation run: registry.New plus sim.New form the
// sim.init layer, Engine.Run the sim.run layer.
func (rp *replayer) simulate(key string, pt campaign.Point, sys *task.System, res *campaign.PointResult) (missed, ok bool) {
	spec := rp.spec
	var eng *sim.Engine
	var protoErr, newErr error
	truncated := false
	rp.call("sim.init", key, func() {
		var proto sim.Protocol
		proto, protoErr = registry.New(pt.Protocol, registry.Opts{RemoteSems: spec.RemoteSems()})
		if protoErr != nil {
			return
		}
		horizon := sys.MaxOffset() + sys.Hyperperiod()
		if budget := spec.SimTickBudget; budget > 0 && horizon > budget {
			horizon = budget
			truncated = true
		}
		eng, newErr = sim.New(sys, proto, sim.Config{Horizon: horizon})
	})
	if protoErr != nil {
		res.SimFailed++
		return false, false
	}
	if truncated {
		res.SimTruncated++
	}
	if newErr != nil {
		res.SimFailed++
		return false, false
	}
	var r *sim.Result
	var err error
	rp.call("sim.run", key, func() { r, err = eng.Run() })
	if err != nil {
		res.SimFailed++
		return false, false
	}
	res.Simulated++
	if r.Horizon > 0 {
		rp.ticks += int64(r.Horizon)
		rp.skipped += int64(max(r.TicksSkipped, 0))
	}
	if r.AnyMiss {
		res.SimMisses++
	}
	if r.Deadlock {
		res.SimDeadlocks++
	}
	return r.AnyMiss, true
}
