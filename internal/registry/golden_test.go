package registry_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpcp/internal/paperex"
	"mpcp/internal/registry"
	"mpcp/internal/task"
	"mpcp/internal/workload"
)

var updateBounds = flag.Bool("update", false, "rewrite testdata/bounds.golden")

const boundsGolden = "testdata/bounds.golden"

// boundsCorpus returns the systems the bounds golden covers: generated
// workloads of several shapes over 20 seeds each, then the paper's worked
// examples.
func boundsCorpus(t *testing.T) []*task.System {
	t.Helper()
	shapes := []func(workload.Config) workload.Config{
		func(c workload.Config) workload.Config { return c },
		func(c workload.Config) workload.Config {
			c.NumProcs, c.TasksPerProc = 8, 8
			c.GcsPerTask, c.LcsPerTask = [2]int{0, 3}, [2]int{0, 3}
			return c
		},
		func(c workload.Config) workload.Config {
			c.Hotspot = true
			c.GcsPerTask = [2]int{1, 3}
			c.CSTicks = [2]int{2, 12}
			return c
		},
		func(c workload.Config) workload.Config {
			c.Sporadic, c.MaxJitterFrac = true, 0.1
			c.GcsPerTask = [2]int{0, 2}
			c.UtilPerProc = 0.7
			return c
		},
	}
	var out []*task.System
	for _, shape := range shapes {
		for seed := int64(1); seed <= 20; seed++ {
			sys, err := workload.Generate(shape(workload.Default(seed)))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, sys)
		}
	}
	for _, build := range []func() (*task.System, error){paperex.Example3, paperex.Example4} {
		sys, err := build()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sys)
	}
	return out
}

// boundsOpts returns the option sets each system is analysed under:
// deferred penalty off and on, the default and an explicit hybrid remote
// group and synchronization-processor assignment, and a non-default FMLP+
// cutoff. Every analysis ignores the fields it has no use for.
func boundsOpts(sys *task.System) []registry.AnalyzeOpts {
	remote := make(map[task.SemID]bool)
	assign := make(map[task.SemID]task.ProcID)
	for _, sem := range sys.Sems {
		if procs := sys.AccessorProcs(sem.ID); sem.Global {
			remote[sem.ID] = sem.ID%2 == 1
			assign[sem.ID] = procs[len(procs)-1]
		}
	}
	var out []registry.AnalyzeOpts
	for _, deferred := range []bool{false, true} {
		out = append(out,
			registry.AnalyzeOpts{DeferredPenalty: deferred},
			registry.AnalyzeOpts{DeferredPenalty: deferred, RemoteSems: remote, DPCPAssign: assign, ShortMax: 3})
	}
	return out
}

// TestBoundsGolden pins every analysable protocol's bounds over the corpus:
// one sha256 per protocol over the JSON of every Bound, or the error, of
// every (system, options) case in order.
func TestBoundsGolden(t *testing.T) {
	corpus := boundsCorpus(t)
	names := registry.Analyzable()
	sums := make(map[string]hash.Hash, len(names))
	for _, name := range names {
		sums[name] = sha256.New()
	}
	for i, sys := range corpus {
		for j, opts := range boundsOpts(sys) {
			for _, name := range names {
				h := sums[name]
				fmt.Fprintf(h, "case %d/%d\n", i, j)
				bounds, err := registry.Analyze(name, sys, opts)
				if err != nil {
					fmt.Fprintf(h, "error: %v\n", err)
					continue
				}
				raw, err := json.Marshal(bounds)
				if err != nil {
					t.Fatal(err)
				}
				h.Write(append(raw, '\n'))
			}
		}
	}
	var got strings.Builder
	for _, name := range names {
		fmt.Fprintf(&got, "%s %s\n", name, hex.EncodeToString(sums[name].Sum(nil)))
	}
	if *updateBounds {
		if err := os.MkdirAll(filepath.Dir(boundsGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(boundsGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(boundsGolden)
	if err != nil {
		t.Fatal(err)
	}
	wantSums := make(map[string]string)
	sc := bufio.NewScanner(strings.NewReader(string(want)))
	for sc.Scan() {
		if name, sum, ok := strings.Cut(sc.Text(), " "); ok {
			wantSums[name] = sum
		}
	}
	for _, name := range names {
		if w, g := wantSums[name], hex.EncodeToString(sums[name].Sum(nil)); w != g {
			t.Errorf("%s: bounds digest %s, golden %s", name, g, w)
		}
	}
	if len(wantSums) != len(names) {
		t.Errorf("golden has %d protocols, registry analyses %d", len(wantSums), len(names))
	}
}
