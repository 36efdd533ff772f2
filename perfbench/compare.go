package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// compare prints, per workload, each layer's self time and allocations
// per call on the new side next to the base side, then the remaining
// per-layer metrics. Each side is a traced-output file or a directory
// of them (*.trace.json), one per workload.
func compare(args []string, w io.Writer) error {
	if len(args) != 2 {
		return errors.New("usage: perfbench compare BASE NEW (traced-output files or directories of *.trace.json)")
	}
	base, err := loadTraces(args[0])
	if err != nil {
		return err
	}
	next, err := loadTraces(args[1])
	if err != nil {
		return err
	}
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b, n := base[name], next[name]
		if n == nil {
			fmt.Fprintf(w, "== %s: no traced output on the new side\n", name)
			continue
		}
		compareOne(w, name, b, n)
	}
	return nil
}

func compareOne(w io.Writer, name string, b, n *traceOutput) {
	fmt.Fprintf(w, "== %s  base %s  new %s\n", name, b.Stamp.GitSHA, n.Stamp.GitSHA)
	for _, d := range stampDiffs(b.Stamp, n.Stamp) {
		fmt.Fprintf(w, "  settings differ, numbers are not comparable: %s\n", d)
	}
	if !b.Correct || !n.Correct {
		fmt.Fprintf(w, "  output checks failed: base correct=%v, new correct=%v\n", b.Correct, n.Correct)
	}
	value := func(t *traceOutput, metric string) (float64, bool) {
		m, ok := t.Metrics[metric]
		return m.Value, ok
	}
	shown := make(map[string]bool)
	fmt.Fprintf(w, "  %-24s %12s %12s %9s %14s %14s %12s\n",
		"layer", "self ms", "new", "delta", "allocs/call", "new", "delta")
	for _, layer := range layers() {
		ms, alloc := layer+".ms", layer+".allocs_per_call"
		bm, okM := value(b, ms)
		nm, _ := value(n, ms)
		ba, okA := value(b, alloc)
		na, _ := value(n, alloc)
		if !okM && !okA {
			continue
		}
		shown[ms], shown[alloc] = okM, okA
		fmt.Fprintf(w, "  %-24s %12s %12s %9s %14s %14s %12s\n", layer,
			cell(bm, okM), cell(nm, okM), pct(bm, nm, okM),
			cell(ba, okA), cell(na, okA), diff(ba, na, okA))
	}
	fmt.Fprintf(w, "  %-32s %14s %14s %9s\n", "metric", "base", "new", "delta")
	for _, d := range perLayer {
		if shown[d.name] {
			continue
		}
		bv, okB := value(b, d.name)
		nv, okN := value(n, d.name)
		if !okB && !okN {
			continue
		}
		fmt.Fprintf(w, "  %-32s %14s %14s %9s %s\n", d.name, cell(bv, okB), cell(nv, okN), pct(bv, nv, okB && okN), d.unit)
	}
}

// layers lists the layers that report self time or allocations, in
// metric-definition order.
func layers() []string {
	var out []string
	seen := make(map[string]bool)
	for _, d := range perLayer {
		layer, suffix := splitMetric(d.name)
		if (suffix == "ms" || suffix == "allocs_per_call") && !seen[layer] {
			seen[layer] = true
			out = append(out, layer)
		}
	}
	return out
}

func splitMetric(name string) (layer, suffix string) {
	i := strings.LastIndexByte(name, '.')
	return name[:i], name[i+1:]
}

func cell(v float64, ok bool) string {
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%.4g", v)
}

func diff(b, n float64, ok bool) string {
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%+.4g", n-b)
}

func pct(b, n float64, ok bool) string {
	if !ok || b == 0 {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", 100*(n-b)/b)
}

// stampDiffs lists the settings, other than the revision, that differ.
func stampDiffs(a, b stamp) []string {
	toMap := func(s stamp) map[string]any {
		m := make(map[string]any)
		raw, _ := json.Marshal(s) // a stamp always marshals
		_ = json.Unmarshal(raw, &m)
		return m
	}
	am, bm := toMap(a), toMap(b)
	var out []string
	for k, av := range am {
		if k == "git_sha" {
			continue
		}
		if bv := bm[k]; fmt.Sprint(av) != fmt.Sprint(bv) {
			out = append(out, fmt.Sprintf("%s %v vs %v", k, av, bv))
		}
	}
	sort.Strings(out)
	return out
}

// loadTraces reads a traced-output file, or every *.trace.json in a
// directory, keyed by workload.
func loadTraces(path string) (map[string]*traceOutput, error) {
	files := []string{path}
	if fi, err := os.Stat(path); err != nil {
		return nil, err
	} else if fi.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.trace.json")); err != nil {
			return nil, err
		}
	}
	out := make(map[string]*traceOutput)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var t traceOutput
		if err := json.Unmarshal(data, &t); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if prev := out[t.Stamp.Workload]; prev != nil {
			return nil, fmt.Errorf("%s: a second traced output for workload %q", f, t.Stamp.Workload)
		}
		out[t.Stamp.Workload] = &t
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no traced outputs", path)
	}
	return out, nil
}
