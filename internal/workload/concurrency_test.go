package workload

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestGenerateConcurrent proves Generate is safe to call from many
// goroutines (each call seeds a pooled generator it holds alone) and
// that concurrency does not perturb the generated systems. Run under
// `go test -race` this is the data-race gate for the campaign engine's
// fan-out over workload generation.
func TestGenerateConcurrent(t *testing.T) {
	const goroutines = 16
	cfg := Default(42)

	want, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				// Interleave the shared config and per-goroutine seeds so
				// distinct generations race with identical ones.
				sys, err := Generate(cfg.WithSeed(42))
				if err != nil {
					errs[g] = err
					return
				}
				if !reflect.DeepEqual(sys.Tasks, want.Tasks) {
					t.Errorf("goroutine %d: concurrent Generate diverged", g)
					return
				}
				if _, err := Generate(cfg.WithSeed(int64(g*100 + i + 1))); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestGenerateSpecsConcurrent is the same gate for the unbound-spec
// generator used by allocation studies.
func TestGenerateSpecsConcurrent(t *testing.T) {
	const goroutines = 16
	cfg := DefaultSpecs(7)

	wantSpecs, wantSems, err := GenerateSpecs(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				specs, sems, err := GenerateSpecs(cfg)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if !reflect.DeepEqual(specs, wantSpecs) || !reflect.DeepEqual(sems, wantSems) {
					t.Errorf("goroutine %d: concurrent GenerateSpecs diverged", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestGeneratePooledMatchesFresh: a generator taken from the pool and
// reseeded draws exactly what a fresh rand.NewSource(seed) draws. Seeds
// alternate, shapes vary, and systems are compared whole, derived index
// included.
func TestGeneratePooledMatchesFresh(t *testing.T) {
	shapes := []func(Config) Config{
		func(c Config) Config { return c },
		func(c Config) Config {
			c.NumProcs, c.TasksPerProc, c.GcsPerTask, c.LcsPerTask = 8, 8, [2]int{0, 3}, [2]int{0, 3}
			return c
		},
		func(c Config) Config {
			c.Sporadic, c.MaxJitterFrac, c.Stagger, c.Hotspot = true, 0.1, true, true
			return c
		},
	}
	for round := 0; round < 3; round++ {
		for _, seed := range []int64{1, 2, 1, 7, 2, -3, 1 << 40} {
			for n, shape := range shapes {
				cfg := shape(Default(seed))
				got, err := Generate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := generate(cfg, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d seed %d shape %d: pooled Generate differs from a fresh source", round, seed, n)
				}
			}
		}
	}
}
