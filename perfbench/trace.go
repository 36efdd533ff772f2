package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"mpcp/internal/campaign"
	"mpcp/internal/obs/span"
)

// distTraceIterations is how many loopback iterations a traced
// sweepd-loopback run records.
const distTraceIterations = 2

// coverageLayers are the layer spans of a replayed point that stand in
// for campaign.EvaluatePoint; campaign.encode is the step after it.
var coverageLayers = []string{"workload.generate", "registry.analyze", "analysis.schedulability", "sim.init", "sim.run"}

// traced is the per-layer run. It replays every point of the spec
// single-threaded three times: once counting allocations per layer
// call, once timing campaign.EvaluatePoint itself (campaign.point), and
// once with a span around every layer call. All three must encode the
// same result for every point and simulate the same ticks. A loopback
// workload then runs distTraceIterations campaigns through the
// coordinator with its handler and HTTP transports wrapped in spans.
// Spans are kept in memory and returned for writing out.
func traced(w benchWorkload, seed int64, dir string) (*outcome, []span.Span, error) {
	spec, err := w.build(seed)
	if err != nil {
		return nil, nil, err
	}
	points := spec.Points()
	out := &outcome{attempted: len(points)}
	log := &span.Log{}
	tr := span.New(log, "perfbench")
	root := tr.Start(span.Context{}, "perfbench.trace", w.name)

	counted := newReplayer(spec, nil)
	want := make([][]byte, len(points))
	for i, pt := range points {
		doc, err := counted.point(pt)
		if err != nil {
			return nil, nil, err
		}
		want[i] = doc
	}

	// The timed passes alternate per point, so drift in machine speed
	// falls on both sides of the coverage and overhead ratios.
	timed := newReplayer(spec, tr)
	eval := tr.Start(root.Context(), "campaign.evaluate", w.name)
	replay := tr.Start(root.Context(), "campaign.replay", w.name)
	evaluate := func(i int, pt campaign.Point) error {
		sp := tr.Start(eval.Context(), "campaign.point", pt.Key)
		r := campaign.EvaluatePoint(spec, pt, nil)
		sp.End()
		doc, err := json.Marshal(r)
		if err != nil {
			return err
		}
		if !bytes.Equal(doc, want[i]) {
			out.problemf("point %s: replayed result differs from EvaluatePoint's", pt.Key)
		}
		if r.Err != "" || r.Failures() > 0 {
			out.failed++
		}
		return nil
	}
	replayOne := func(i int, pt campaign.Point) error {
		sp := tr.Start(replay.Context(), "replay.point", pt.Key)
		timed.parent = sp.Context()
		doc, err := timed.point(pt)
		sp.End()
		if err != nil {
			return err
		}
		if !bytes.Equal(doc, want[i]) {
			out.problemf("point %s: timed replay differs from the counted replay", pt.Key)
		}
		return nil
	}
	for i, pt := range points {
		first, second := evaluate, replayOne
		if i%2 == 1 {
			first, second = replayOne, evaluate
		}
		if err := first(i, pt); err != nil {
			return nil, nil, err
		}
		if err := second(i, pt); err != nil {
			return nil, nil, err
		}
	}
	eval.End()
	replay.End()
	if timed.ticks != counted.ticks || timed.skipped != counted.skipped {
		out.problemf("sim.run.ticks did not repeat: %d (%d skipped) then %d (%d skipped)",
			counted.ticks, counted.skipped, timed.ticks, timed.skipped)
	}

	var dt *distTracer
	stale := 0
	if w.remote {
		dt = newDistTracer(tr, root.Context())
		if stale, err = tracedLoopback(w, seed, dir, dt, out); err != nil {
			return nil, nil, err
		}
		out.failed += stale
	}
	root.End()
	if err := tr.Err(); err != nil {
		return nil, nil, err
	}
	if err := checkReference(w, dir); err != nil {
		out.problemf("%v", err)
	}
	out.values = layerValues(layerStats(log.Spans), counted, timed, dt, stale)
	return out, log.Spans, nil
}

// tracedLoopback runs the spec through the coordinator with dist spans
// on, checking every results file against an in-process run. It
// returns the workers' stale-lease count.
func tracedLoopback(w benchWorkload, seed int64, dir string, dt *distTracer, out *outcome) (int, error) {
	local, _, err := runInProcess(w.spec(seed), filepath.Join(dir, "inprocess.jsonl"))
	if err != nil {
		return 0, err
	}
	lb, err := newLoopback(dir, dt)
	if err != nil {
		return 0, err
	}
	defer lb.close()
	path := filepath.Join(dir, "results.jsonl")
	spec, err := w.build(seed)
	if err != nil {
		return 0, err
	}
	if err := lb.setup(spec); err != nil {
		return 0, err
	}
	for i := 0; i < distTraceIterations; i++ {
		spec, err := w.build(seed)
		if err != nil {
			return 0, err
		}
		points := len(spec.Points())
		if err := lb.reset(); err != nil {
			return 0, err
		}
		c, err := lb.run(spec, path)
		if err != nil {
			return 0, err
		}
		if err := lb.check(); err != nil {
			out.problemf("%v", err)
		}
		out.attempted += points
		out.failed += failedPoints(c, points)
		if err := checkDigest(path, local); err != nil {
			out.problemf("loopback iteration %d differs from the in-process run: %v", i, err)
		}
	}
	// Shutdown waits for in-flight handlers, so every span has been
	// emitted once it returns.
	return lb.staleLeases, lb.close()
}

// layerValues computes every per-layer metric. Generic suffixes come
// from the span statistics and the allocation pass; the rest from the
// replay counters and the dist tracer. Metrics of layers that did not
// run are 0.
func layerValues(st map[string]*layerStat, counted, timed *replayer, dt *distTracer, staleLeases int) map[string]float64 {
	get := func(name string) *layerStat {
		if s := st[name]; s != nil {
			return s
		}
		return &layerStat{}
	}
	v := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		layer, suffix := splitMetric(d.name)
		s := get(layer)
		switch suffix {
		case "calls":
			v[d.name] = float64(s.calls)
		case "ms":
			v[d.name] = float64(s.selfNs) / 1e6
		case "us_p50":
			v[d.name] = percentile(s.durUs, 50)
		case "us_p99":
			v[d.name] = percentile(s.durUs, 99)
		case "allocs_per_call":
			v[d.name] = ratio(float64(counted.allocs[layer]), float64(counted.calls[layer]))
		}
	}
	simRun := get("sim.run")
	v["sim.run.ticks"] = float64(timed.ticks)
	v["sim.run.ticks_skipped_frac"] = ratio(float64(timed.skipped), float64(timed.ticks))
	v["sim.run.ns_per_tick"] = ratio(float64(simRun.totalNs), float64(timed.ticks))

	var layerNs int64
	for _, name := range coverageLayers {
		layerNs += get(name).totalNs
	}
	pointNs := float64(get("campaign.point").totalNs)
	replayNs := get("replay.point").totalNs - get("campaign.encode").totalNs
	v["trace.coverage"] = ratio(float64(layerNs), pointNs)
	v["trace.overhead_frac"] = ratio(float64(replayNs)-pointNs, pointNs)

	if dt == nil {
		dt = &distTracer{}
	}
	v["dist.submit.cache_hit_frac"] = ratio(float64(dt.submitCached), float64(dt.submitUnits))
	v["dist.ingest.kb"] = float64(dt.ingestBytes) / 1024
	v["dist.lease.wait_frac"] = ratio(float64(dt.leaseEmpty), float64(get("dist.lease").calls))
	v["dist.results.kb"] = float64(dt.resultsBytes) / 1024
	v["dist.http_errors"] = float64(dt.httpErrors)
	v["dist.stale_leases"] = float64(staleLeases)
	return v
}

// traceOutput is the file a traced run writes for compare.
type traceOutput struct {
	Stamp    stamp                  `json:"stamp"`
	Correct  bool                   `json:"correct"`
	Metrics  map[string]metricValue `json:"metrics"`
	Problems []string               `json:"problems,omitempty"`
}

// writeTrace writes the traced output and the span stream, which
// `rttrace -timeline` renders.
func writeTrace(base string, o traceOutput, spans []span.Span) error {
	b, err := json.MarshalIndent(o, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".trace.json", append(b, '\n'), 0o644); err != nil {
		return err
	}
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	sink := span.NewStreamSink(f)
	for _, s := range spans {
		if err := sink.Span(s); err != nil {
			sink.Close()
			return fmt.Errorf("span stream: %w", err)
		}
	}
	return sink.Close()
}
