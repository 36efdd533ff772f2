// Command perfbench measures the campaign point — generate, analyse,
// simulate, encode — end to end and layer by layer, on three workloads:
// sim-dense and analysis-wide in-process, sweepd-loopback through the
// dist coordinator over 127.0.0.1. See README.md in this directory.
//
//	perfbench --workload sim-dense --seed 1 --seconds 10 --trace 0
//	perfbench --workload sim-dense --seed 1 --trace 1
//	perfbench compare BASE NEW
//	perfbench pin
//
// An untraced run (--trace 0) measures for --seconds and prints the
// end-to-end metrics; a traced run (--trace 1) replays the spec once
// with every layer call bracketed and prints the per-layer metrics,
// writing them and the span stream under --out-dir. Either way the last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics, and the exit code is 1 when an output
// check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"mpcp/internal/obs/span"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && (args[0] == "compare" || args[0] == "pin") {
		var err error
		if args[0] == "compare" {
			err = compare(args[1:], stdout)
		} else {
			err = printPins(filepath.Join(".bench_build", "perfbench"), stdout)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench %s: %v\n", args[0], err)
			return 2
		}
		return 0
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sim-dense, analysis-wide or sweepd-loopback")
	seed := fs.Int64("seed", 0, "input seed, >= 0 (the spec's base seed is seed+1)")
	seconds := fs.Float64("seconds", 10, "how long an untraced run measures")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer replay instead of the timed measurement")
	outDir := fs.String("out-dir", filepath.Join(".bench_build", "perfbench"), "directory for work files, traced outputs and span streams")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seed < 0 || *seed > 1<<62 || *seconds < 0 || (*traceFlag != 0 && *traceFlag != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: need --seed in [0, 2^62], --seconds >= 0 and --trace 0 or 1")
		return 2
	}
	return bench(w, options{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, outDir: *outDir}, stdout, stderr)
}

// bench runs one workload and prints its stamp, a readable report on
// stderr, and the result line.
func bench(w benchWorkload, o options, stdout, stderr io.Writer) int {
	st := newStamp(w, o.seed, o.seconds, o.trace)
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	markTopDir(o.outDir)
	dir := filepath.Join(o.outDir, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.Mkdir(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	stampJSON, _ := json.Marshal(st) // a stamp always marshals
	fmt.Fprintf(stdout, "stamp %s\n", stampJSON)

	defs := endToEnd
	var out *outcome
	var err error
	var spans []span.Span
	if o.trace {
		defs = perLayer
		out, spans, err = traced(w, o.seed, dir)
	} else {
		out, err = measure(w, o.seed, time.Duration(o.seconds*float64(time.Second)), dir)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	metrics, err := unitMetrics(defs, out.values)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, p := range out.problems {
		fmt.Fprintf(stderr, "perfbench: output check failed: %s\n", p)
	}
	correct := len(out.problems) == 0
	fmt.Fprintf(stderr, "%s seed %d: %d points attempted, %d failed (failed_frac %g), correct=%v\n",
		w.name, o.seed, out.attempted, out.failed, ratio(float64(out.failed), float64(out.attempted)), correct)
	for _, n := range out.notes {
		fmt.Fprintln(stderr, n)
	}
	printMetrics(stderr, defs, metrics)
	if o.trace {
		base := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d", w.name, o.seed))
		t := traceOutput{Stamp: st, Correct: correct, Metrics: metrics, Problems: out.problems}
		if err := writeTrace(base, t, spans); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stderr, "traced output %s.trace.json, span stream %s.spans.jsonl\n", base, base)
	}
	line, err := json.Marshal(result{Correct: correct, Attempted: out.attempted, Failed: out.failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !correct {
		return 1
	}
	return 0
}

// printPins prints the reference-seed digest and ticks of every
// workload, in the form of the pins table.
func printPins(outDir string, w io.Writer) error {
	dir := filepath.Join(outDir, fmt.Sprintf("pin-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for _, wl := range workloads {
		digest, ticks, err := runInProcess(wl.spec(referenceSeed), filepath.Join(dir, wl.name+".jsonl"))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\t%q: {Digest: %q, Ticks: %d},\n", wl.name, digest, ticks)
	}
	return nil
}
