package workload

import "testing"

// wide is the largest analysis-wide campaign cell: 8 processors of 8
// tasks each.
func wide(seed int64) Config {
	cfg := Default(seed)
	cfg.NumProcs, cfg.TasksPerProc = 8, 8
	return cfg
}

func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(wide(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
