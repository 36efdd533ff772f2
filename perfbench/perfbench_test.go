package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mpcp/internal/campaign"
	"mpcp/internal/obs/span"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames checks every metric name and unit against the
// benchmark contract, and that BENCHMARK.json declares exactly the
// metrics and workloads this program reports.
func TestMetricNames(t *testing.T) {
	seen := make(map[string]bool)
	for _, d := range concatDefs(endToEnd, perLayer) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q does not match [A-Za-z0-9_.-]+ (max 64, leading letter or digit)", d.name)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: bad unit %q", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %s defined twice", d.name)
		}
		seen[d.name] = true
	}

	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(got) != len(defs) {
			t.Errorf("BENCHMARK.json %s: %d metrics, program reports %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("BENCHMARK.json %s[%d] = %s %s, program reports %s %s", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", endToEnd, bm.EndToEnd)
	same("per_layer", perLayer, bm.PerLayer)
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(bm.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bm.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, bm.Workloads[i].Name, w.name)
		}
	}
}

// tinySpec shrinks a spec for tests: two utilisations, one trial.
func tinySpec(spec func(int64) *campaign.Spec) func(int64) *campaign.Spec {
	return func(seed int64) *campaign.Spec {
		s := spec(seed)
		s.Utils = s.Utils[:2]
		s.SeedsPerPoint = 1
		return s
	}
}

// tiny returns a shrunken copy of a workload. Its name has no pin, so
// the reference check is skipped.
func tiny(w benchWorkload) benchWorkload {
	w.name += "-tiny"
	w.spec = tinySpec(w.spec)
	return w
}

func TestDigestCheckTripsOnCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	digest, _, err := runInProcess(tinySpec(simDenseSpec)(3), path)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDigest(path, digest); err != nil {
		t.Fatalf("intact file: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, []byte(`"trials":1`))
	if i < 0 {
		t.Fatalf("no trial count in %s", data)
	}
	corrupt := append([]byte(nil), data...)
	corrupt[i+len(`"trials":`)] = '2'
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkDigest(path, digest); err == nil {
		t.Fatal("digest check passed on a corrupted results file")
	}
}

// TestReferencePins runs every workload's reference spec and compares
// it with the pinned digest and tick count.
func TestReferencePins(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every reference campaign")
	}
	for _, w := range workloads {
		p, ok := pins[w.name]
		if !ok || len(p.Digest) != 64 {
			t.Errorf("%s: no pinned digest", w.name)
			continue
		}
		if err := checkReference(w, t.TempDir()); err != nil {
			t.Error(err)
		}
	}
}

func TestSelfTime(t *testing.T) {
	sp := func(start, end int64) span.Span { return span.Span{Start: start, Dur: end - start} }
	parent := sp(100, 200)
	for _, tc := range []struct {
		name     string
		children []span.Span
		want     int64
	}{
		{"leaf", nil, 100},
		{"one nested child", []span.Span{sp(120, 150)}, 70},
		{"disjoint children", []span.Span{sp(110, 120), sp(150, 180)}, 60},
		{"overlapping children", []span.Span{sp(110, 140), sp(130, 160)}, 50},
		{"child inside a sibling", []span.Span{sp(110, 170), sp(120, 130)}, 40},
		{"children out of order", []span.Span{sp(170, 190), sp(110, 130), sp(125, 140)}, 50},
		{"child past the parent's end", []span.Span{sp(180, 250)}, 80},
		{"child before the parent's start", []span.Span{sp(50, 110)}, 90},
		{"child outside the parent", []span.Span{sp(10, 20), sp(300, 400)}, 100},
		{"child covering the parent", []span.Span{sp(0, 300)}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}

	// In a tree, only direct children count against a span: a
	// grandchild is already inside its parent.
	log := &span.Log{}
	clock := int64(0)
	tr := span.NewWithClock(log, "test", func() int64 { return clock })
	root := tr.Start(span.Context{}, "root", "r")
	clock = 10
	mid := tr.Start(root.Context(), "mid", "m")
	clock = 20
	leaf := tr.Start(mid.Context(), "leaf", "l")
	clock = 50
	leaf.End()
	clock = 60
	mid.End()
	other := tr.Start(root.Context(), "mid", "m2")
	clock = 70
	other.End()
	clock = 100
	root.End()
	st := layerStats(log.Spans)
	for name, want := range map[string]int64{"root": 40, "mid": 20 + 10, "leaf": 30} {
		if got := st[name].selfNs; got != want {
			t.Errorf("%s: self time %d, want %d", name, got, want)
		}
	}
	if st["mid"].calls != 2 || st["mid"].totalNs != 60 {
		t.Errorf("mid: %d calls, %d ns total; want 2 calls, 60 ns", st["mid"].calls, st["mid"].totalNs)
	}
}

// TestReplayCallCounts checks the replay calls each layer once per
// trial, and encodes what EvaluatePoint returns.
func TestReplayCallCounts(t *testing.T) {
	spec := simDenseSpec(5)
	spec.Utils = spec.Utils[:1]
	spec.SeedsPerPoint = 3
	spec.FillDefaults()
	points := spec.Points()
	trials := len(points) * spec.SeedsPerPoint

	log := &span.Log{}
	counted, timed := newReplayer(spec, nil), newReplayer(spec, span.New(log, "test"))
	for _, pt := range points {
		want, err := json.Marshal(campaign.EvaluatePoint(spec, pt, nil))
		if err != nil {
			t.Fatal(err)
		}
		for _, rp := range []*replayer{counted, timed} {
			got, err := rp.point(pt)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: replay encoded\n%s\nEvaluatePoint\n%s", pt.Key, got, want)
			}
		}
	}
	st := layerStats(log.Spans)
	for _, layer := range coverageLayers {
		if counted.calls[layer] != trials || st[layer] == nil || st[layer].calls != trials {
			t.Errorf("%s: %d counted calls, %v timed; want %d (points x seeds)", layer, counted.calls[layer], st[layer], trials)
		}
		if counted.allocs[layer] == 0 {
			t.Errorf("%s: no allocations counted", layer)
		}
	}
	if st["campaign.encode"].calls != len(points) {
		t.Errorf("campaign.encode: %d calls, want %d", st["campaign.encode"].calls, len(points))
	}
	if counted.ticks == 0 || counted.ticks != timed.ticks || counted.skipped != timed.skipped {
		t.Errorf("ticks %d/%d skipped %d/%d: want equal and nonzero", counted.ticks, timed.ticks, counted.skipped, timed.skipped)
	}
}

// TestSmoke runs every workload, shrunken, untraced and traced, and
// compares the two traced outputs of one workload.
func TestSmoke(t *testing.T) {
	outDir := t.TempDir()
	for _, w := range workloads {
		w := tiny(w)
		for _, trace := range []bool{false, true} {
			var stdout, stderr bytes.Buffer
			code := bench(w, options{seed: 7, trace: trace, outDir: outDir}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace=%v: exit %d\n%s", w.name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			if !strings.HasPrefix(lines[0], "stamp {") {
				t.Errorf("%s: first line %q is not the stamp", w.name, lines[0])
			}
			var r result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				t.Fatalf("%s: last line: %v", w.name, err)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if !r.Correct || r.Attempted == 0 || r.Failed != 0 || len(r.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d metrics=%d",
					w.name, trace, r.Correct, r.Attempted, r.Failed, len(r.Metrics))
			}
			if trace && w.remote {
				for _, m := range []string{"dist.submit.calls", "dist.ingest.calls", "dist.lease.calls", "dist.results.calls", "dist.roundtrip.ms"} {
					if r.Metrics[m].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w.name, m, r.Metrics[m].Value)
					}
				}
				if hit := r.Metrics["dist.submit.cache_hit_frac"].Value; hit != 0.5 {
					t.Errorf("%s: cache_hit_frac %v, want 0.5 (lower half of the utils pre-warmed)", w.name, hit)
				}
			}
		}
	}
	if _, err := span.ReadStream(mustOpen(t, filepath.Join(outDir, "sim-dense-tiny-seed7.spans.jsonl"))); err != nil {
		t.Errorf("span stream: %v", err)
	}
	var buf bytes.Buffer
	if err := compare([]string{outDir, outDir}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"== sim-dense-tiny", "sim.run", "registry.analyze", "== sweepd-loopback-tiny"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, buf.String())
		}
	}
	if strings.Contains(buf.String(), "settings differ") {
		t.Errorf("compare of identical settings reports differences:\n%s", buf.String())
	}
}

func mustOpen(t *testing.T, path string) *os.File {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}
