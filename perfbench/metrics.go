package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"points_per_s", "1/s"},
	{"cpu_ms_per_point", "ms"},
	{"allocs_per_point", "count"},
	{"alloc_kb_per_point", "KiB"},
	{"max_rss_mb", "MiB"},
	{"setup_s", "s"},
}

// suffixUnit gives the unit of each per-layer metric suffix. Every
// ".ms" metric is self time: the layer's span time minus the part its
// child spans cover.
var suffixUnit = map[string]string{
	"calls":              "count",
	"ms":                 "ms",
	"us_p50":             "us",
	"us_p99":             "us",
	"allocs_per_call":    "count",
	"ticks":              "count",
	"ticks_skipped_frac": "frac",
	"ns_per_tick":        "ns",
	"cache_hit_frac":     "frac",
	"kb":                 "KiB",
	"wait_frac":          "frac",
}

func layerMetrics(layer string, suffixes ...string) []metricDef {
	out := make([]metricDef, len(suffixes))
	for i, s := range suffixes {
		out[i] = metricDef{layer + "." + s, suffixUnit[s]}
	}
	return out
}

// perLayer are the metrics of a traced run (--trace 1).
var perLayer = concatDefs(
	layerMetrics("workload.generate", "calls", "ms", "us_p50", "us_p99", "allocs_per_call"),
	layerMetrics("registry.analyze", "calls", "ms", "us_p50", "us_p99", "allocs_per_call"),
	layerMetrics("analysis.schedulability", "calls", "ms", "allocs_per_call"),
	layerMetrics("sim.init", "calls", "ms", "allocs_per_call"),
	layerMetrics("sim.run", "calls", "ms", "us_p50", "us_p99", "allocs_per_call", "ticks", "ticks_skipped_frac", "ns_per_tick"),
	layerMetrics("campaign.point", "us_p50", "us_p99"),
	layerMetrics("campaign.encode", "calls", "ms"),
	layerMetrics("dist.submit", "calls", "ms", "cache_hit_frac"),
	layerMetrics("dist.ingest", "calls", "ms", "us_p50", "us_p99", "kb"),
	layerMetrics("dist.lease", "calls", "us_p50", "us_p99", "wait_frac"),
	layerMetrics("dist.results", "calls", "ms", "kb"),
	layerMetrics("dist.roundtrip", "calls", "ms"),
	[]metricDef{
		{"dist.http_errors", "count"},
		{"dist.stale_leases", "count"},
		{"trace.coverage", "frac"},
		{"trace.overhead_frac", "frac"},
	},
)

func concatDefs(groups ...[]metricDef) []metricDef {
	var out []metricDef
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// unitMetrics attaches units to values, requiring exactly the metrics
// defs names, each a finite number.
func unitMetrics(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		var extra []string
		for name := range values {
			if _, ok := out[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("undeclared metrics %v", extra)
	}
	return out, nil
}

// printMetrics writes a human-readable table in definition order.
func printMetrics(w io.Writer, defs []metricDef, m map[string]metricValue) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", d.name, m[d.name].Value, d.unit)
	}
}

// median returns the middle value (mean of the two middle values for
// an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of xs; 0 for no values.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// ratio is a/b, or 0 when b is 0 (a layer that never ran).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
