package registry_test

import (
	"runtime"
	"testing"

	"mpcp/internal/registry"
	"mpcp/internal/sim"
	"mpcp/internal/workload"
)

// analyzeAllocCeilings pins the allocations of one registry.Analyze call
// on the DefaultWorkload(1) system (workload.Default(1)). Each ceiling is
// the count measured with Go 1.24 plus about a quarter. The task system's
// derived structure and its Section 4 ceilings are compiled once at
// Validate and the bound loops use dense scratch, so an analysis that
// re-derives them per call (a ceiling table, a map per task or per
// processor) exceeds its ceiling.
var analyzeAllocCeilings = map[string]float64{
	"mpcp":      18, // measured 14
	"mpcp-ceil": 18, // measured 14
	"dpcp":      15, // measured 12
	"hybrid":    26, // measured 21
	"msrp":      10, // measured 8
	"fmlp":      18, // measured 14
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
// dpcp, msrp and fmlp read the ceilings Validate compiled, so a ceiling
// table built at Init exceeds theirs too.
var simulateAllocCeilings = map[string]float64{
	"mpcp":    333, // measured 266
	"dpcp":    361, // measured 289
	"hybrid":  359, // measured 287
	"msrp":    261, // measured 209
	"fmlp":    265, // measured 212
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

// generateCeilings pin one workload.Generate(workload.Default(1)): the
// allocation count and the bytes allocated, each measured with Go 1.24
// plus about a quarter. Generate reseeds a pooled generator, so a fresh
// rand.NewSource per call (about 4.9 KB of source state) exceeds the
// byte ceiling.
const (
	generateAllocCeiling = 124   // measured 99
	generateByteCeiling  = 19300 // measured 15,432
)

func TestGenerateAllocs(t *testing.T) {
	cfg := workload.Default(1)
	generate := func() {
		if _, err := workload.Generate(cfg); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(20, generate); got > generateAllocCeiling {
		t.Errorf("workload.Generate allocates %v times per call, ceiling %v", got, generateAllocCeiling)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		generate()
	}
	runtime.ReadMemStats(&after)
	if got := float64(after.TotalAlloc-before.TotalAlloc) / runs; got > generateByteCeiling {
		t.Errorf("workload.Generate allocates %.0f bytes per call, ceiling %d", got, generateByteCeiling)
	}
}
