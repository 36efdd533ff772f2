package registry_test

import (
	"testing"

	"mpcp/internal/registry"
	"mpcp/internal/workload"
)

// BenchmarkAnalyze times one registry.Analyze per analysable protocol on
// an 8-processor, 8-tasks-per-processor system, the largest
// analysis-wide campaign cell.
func BenchmarkAnalyze(b *testing.B) {
	cfg := workload.Default(1)
	cfg.NumProcs, cfg.TasksPerProc = 8, 8
	sys, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range registry.Analyzable() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := registry.Analyze(name, sys, registry.AnalyzeOpts{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
