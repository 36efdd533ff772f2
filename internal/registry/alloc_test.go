package registry_test

import (
	"testing"

	"mpcp/internal/registry"
	"mpcp/internal/sim"
	"mpcp/internal/workload"
)

// analyzeAllocCeilings pins the allocations of one registry.Analyze call
// on the DefaultWorkload(1) system (workload.Default(1)). Each ceiling is
// the count measured with Go 1.24 plus about a quarter. The task system's
// derived structure is compiled once at Validate, so an analysis that
// re-derives it per task (a scan and sort per TasksOn or TasksUsing call,
// or a ceiling table per task) exceeds its ceiling.
var analyzeAllocCeilings = map[string]float64{
	"mpcp":      60, // measured 48
	"mpcp-ceil": 60, // measured 48
	"dpcp":      66, // measured 53
	"hybrid":    58, // measured 46
	"msrp":      48, // measured 38
	"fmlp":      52, // measured 41
}

func TestAnalyzeAllocs(t *testing.T) {
	sys, err := workload.Generate(workload.Default(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range registry.Analyzable() {
		ceiling, ok := analyzeAllocCeilings[name]
		if !ok {
			t.Errorf("%s: no allocation ceiling pinned", name)
			continue
		}
		got := testing.AllocsPerRun(20, func() {
			if _, err := registry.Analyze(name, sys, registry.AnalyzeOpts{}); err != nil {
				t.Fatal(err)
			}
		})
		if got > ceiling {
			t.Errorf("%s: registry.Analyze allocates %v times per call, ceiling %v", name, got, ceiling)
		}
	}
}

// simulateAllocCeilings pins the allocations of one registry.New +
// sim.New + Run on the same system, default horizon. Each ceiling is the
// count measured with Go 1.24 plus about a quarter. The dispatcher scans
// per-processor run lists and the inheritance fixpoints (pcp.Local for
// the first five, proto.Inherit for inherit) reuse buffers they own, so
// a map or slice built per unlock or per job finish exceeds its ceiling.
var simulateAllocCeilings = map[string]float64{
	"mpcp":    333, // measured 266
	"dpcp":    374, // measured 299
	"hybrid":  359, // measured 287
	"msrp":    274, // measured 219
	"fmlp":    278, // measured 222
	"inherit": 234, // measured 187
}

func TestSimulateAllocs(t *testing.T) {
	sys, err := workload.Generate(workload.Default(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"mpcp", "dpcp", "hybrid", "msrp", "fmlp", "inherit"} {
		got := testing.AllocsPerRun(20, func() {
			p, err := registry.New(name, registry.Opts{Sys: sys})
			if err != nil {
				t.Fatal(err)
			}
			e, err := sim.New(sys, p, sim.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
		})
		if ceiling := simulateAllocCeilings[name]; got > ceiling {
			t.Errorf("%s: simulation allocates %v times per run, ceiling %v", name, got, ceiling)
		}
	}
}
