package main

import (
	"sort"

	"mpcp/internal/obs/span"
)

// layerStat aggregates the spans of one name.
type layerStat struct {
	calls   int
	selfNs  int64
	totalNs int64
	durUs   []float64
}

// layerStats groups spans by name. A span's self time is its duration
// minus the part of its interval that its children cover.
func layerStats(spans []span.Span) map[string]*layerStat {
	children := make(map[string][]span.Span)
	for _, s := range spans {
		if s.Parent != "" {
			k := s.Trace + "/" + s.Parent
			children[k] = append(children[k], s)
		}
	}
	out := make(map[string]*layerStat)
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		st.calls++
		st.selfNs += selfTime(s, children[s.Trace+"/"+s.ID])
		st.totalNs += s.Dur
		st.durUs = append(st.durUs, float64(s.Dur)/1e3)
	}
	return out
}

// selfTime is parent's duration minus the union of its children's
// intervals, each clipped to the parent's interval, so nested and
// overlapping children are subtracted once and a child that outlives
// its parent is subtracted only up to the parent's end.
func selfTime(parent span.Span, children []span.Span) int64 {
	start, end := parent.Start, parent.Start+parent.Dur
	type interval struct{ from, to int64 }
	ivs := make([]interval, 0, len(children))
	for _, c := range children {
		from, to := max(c.Start, start), min(c.Start+c.Dur, end)
		if to > from {
			ivs = append(ivs, interval{from, to})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].from < ivs[j].from })
	var covered int64
	for i := 0; i < len(ivs); {
		from, to := ivs[i].from, ivs[i].to
		for i++; i < len(ivs) && ivs[i].from <= to; i++ {
			to = max(to, ivs[i].to)
		}
		covered += to - from
	}
	return parent.Dur - covered
}
