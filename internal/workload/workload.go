// Package workload generates seeded random task sets for the parameter
// sweeps of the evaluation (experiments E7, E9, E10, E11): per-processor
// utilization is distributed UUniFast-style, periods are drawn from a
// harmonic-friendly menu so hyperperiods stay simulable, and critical
// sections (local and global) are carved out of each task's computation.
// Identical configurations with identical seeds produce identical systems.
package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"sync"

	"mpcp/internal/task"
)

// Config describes a random workload. The zero value is not usable; start
// from Default and override.
type Config struct {
	Seed     int64
	NumProcs int
	// TasksPerProc tasks are bound to every processor.
	TasksPerProc int
	// UtilPerProc is the total utilization target of each processor,
	// split UUniFast-style among its tasks.
	UtilPerProc float64
	// Periods is the menu of periods to draw from (uniformly).
	Periods []int

	// GlobalSems is the number of global semaphores shared by the whole
	// system; LocalSemsPerProc local semaphores exist on each processor.
	GlobalSems       int
	LocalSemsPerProc int

	// GcsPerTask and LcsPerTask bound how many global/local critical
	// sections each task executes (uniform in [min,max]).
	GcsPerTask [2]int
	LcsPerTask [2]int

	// CSTicks bounds the duration of each critical section (uniform in
	// [min,max] ticks). Critical sections are truncated if a task's
	// computation budget cannot fit them.
	CSTicks [2]int

	// Hotspot forces every global critical section onto the first global
	// semaphore, concentrating contention (adversarial sweeps).
	Hotspot bool

	// Stagger assigns deterministic release offsets (spread across each
	// task's period) so critical sections collide instead of executing in
	// priority order from a synchronous start.
	Stagger bool

	// Sporadic switches every task to the sporadic release model: its
	// minimum interarrival is MinGapFrac of its period (at least its WCET),
	// and successive arrivals are drawn by the simulator from
	// [min, 2*period-min], keeping the mean rate at 1/period. A zero
	// MinGapFrac defaults to 0.5.
	Sporadic   bool
	MinGapFrac float64

	// MaxJitterFrac gives every task a release jitter of that fraction of
	// its period (rounded, clamped to the period). Zero disables jitter.
	MaxJitterFrac float64
}

// Default returns a reasonable baseline configuration: 4 processors,
// 4 tasks each at 50% utilization, 3 global and 2 local semaphores,
// one gcs and one lcs per task of 2..6 ticks.
func Default(seed int64) Config {
	return Config{
		Seed:             seed,
		NumProcs:         4,
		TasksPerProc:     4,
		UtilPerProc:      0.5,
		Periods:          []int{100, 200, 300, 400, 600, 1200},
		GlobalSems:       3,
		LocalSemsPerProc: 2,
		GcsPerTask:       [2]int{1, 1},
		LcsPerTask:       [2]int{0, 1},
		CSTicks:          [2]int{2, 6},
	}
}

// WithSeed returns a copy of the configuration with the seed replaced —
// the per-trial knob of sweep drivers (internal/campaign) that hold every
// other parameter fixed across a point.
func (c Config) WithSeed(seed int64) Config {
	c.Seed = seed
	return c
}

// Validate reports whether the configuration can generate a system.
// Generate performs the same checks; callers that expand a configuration
// grid (internal/campaign) validate every cell up front so a sweep cannot
// fail late on a malformed corner.
func (c Config) Validate() error {
	if c.NumProcs <= 0 || c.TasksPerProc <= 0 {
		return errors.New("workload: NumProcs and TasksPerProc must be positive")
	}
	if len(c.Periods) == 0 {
		return errors.New("workload: empty period menu")
	}
	if c.UtilPerProc <= 0 || c.UtilPerProc >= 1 {
		return fmt.Errorf("workload: UtilPerProc %.2f out of (0,1)", c.UtilPerProc)
	}
	if c.MinGapFrac < 0 || c.MinGapFrac > 1 {
		return fmt.Errorf("workload: MinGapFrac %.2f out of [0,1]", c.MinGapFrac)
	}
	if c.MaxJitterFrac < 0 || c.MaxJitterFrac > 1 {
		return fmt.Errorf("workload: MaxJitterFrac %.2f out of [0,1]", c.MaxJitterFrac)
	}
	return nil
}

// rngs holds generators between Generate calls. Seeding a pooled
// generator draws the same sequence as a fresh rand.NewSource(seed) and
// saves allocating the source's state on every call.
var rngs = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// Generate builds and validates a random system from cfg. Each call
// draws from a generator it holds alone, seeded from cfg.Seed, so
// Generate is safe to call concurrently from multiple goroutines.
func Generate(cfg Config) (*task.System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rngs.Get().(*rand.Rand)
	defer rngs.Put(rng)
	rng.Seed(cfg.Seed)
	return generate(cfg, rng)
}

// generate builds the system of a validated cfg from rng, seeded with
// cfg.Seed.
func generate(cfg Config, rng *rand.Rand) (*task.System, error) {
	// Tasks and semaphores are carved from one array each; the ID lists
	// are windows of one backing array.
	nGlobal, nLocal := max(cfg.GlobalSems, 0), max(cfg.LocalSemsPerProc, 0)
	nSems, nTasks := nGlobal+cfg.NumProcs*nLocal, cfg.NumProcs*cfg.TasksPerProc
	sys := task.NewSystem(cfg.NumProcs)
	sys.Tasks = make([]*task.Task, 0, nTasks)
	if nSems > 0 { // a system without semaphores keeps a nil list
		sys.Sems = make([]*task.Semaphore, 0, nSems)
	}
	sems, tasks := make([]task.Semaphore, nSems), make([]task.Task, nTasks)
	semIDs := make([]task.SemID, nSems)
	for k := range semIDs {
		semIDs[k] = task.SemID(k + 1)
		name := ""
		if l := k - nGlobal; l < 0 {
			name = "G" + strconv.Itoa(k+1)
		} else { // local semaphore l%nLocal+1 of processor l/nLocal
			name = "L" + strconv.Itoa(l/nLocal) + "." + strconv.Itoa(l%nLocal+1)
		}
		sems[k] = task.Semaphore{ID: semIDs[k], Name: name}
		sys.AddSem(&sems[k])
	}
	globalSems := semIDs[:nGlobal]
	localByProc := make([][]task.SemID, cfg.NumProcs)
	for p := range localByProc {
		lo := nGlobal + p*nLocal
		localByProc[p] = semIDs[lo : lo+nLocal]
	}

	gcsPool := globalSems
	if cfg.Hotspot && len(globalSems) > 0 {
		gcsPool = globalSems[:1]
	}
	id := task.ID(1)
	utils := make([]float64, cfg.TasksPerProc)
	for p := 0; p < cfg.NumProcs; p++ {
		uuniFast(rng, utils, cfg.UtilPerProc)
		for k := 0; k < cfg.TasksPerProc; k++ {
			period := cfg.Periods[rng.Intn(len(cfg.Periods))]
			wcet := int(math.Round(utils[k] * float64(period)))
			if wcet < 2 {
				wcet = 2
			}
			if wcet >= period {
				wcet = period - 1
			}
			body := buildBody(rng, cfg, wcet, gcsPool, localByProc[p])
			offset := 0
			if cfg.Stagger {
				offset = (int(id) * period) / (cfg.NumProcs*cfg.TasksPerProc + 1)
			}
			minGap := 0
			if cfg.Sporadic {
				frac := cfg.MinGapFrac
				if frac == 0 {
					frac = 0.5
				}
				minGap = int(math.Round(frac * float64(period)))
				if w := bodyWCET(body); minGap < w {
					minGap = w
				}
				if minGap > period {
					minGap = period
				}
			}
			jitter := int(math.Round(cfg.MaxJitterFrac * float64(period)))
			if jitter > period {
				jitter = period
			}
			tasks[id-1] = task.Task{
				ID:              id,
				Name:            "T" + strconv.Itoa(int(id)),
				Proc:            task.ProcID(p),
				Period:          period,
				Offset:          offset,
				Body:            body,
				MinInterarrival: minGap,
				Jitter:          jitter,
			}
			sys.AddTask(&tasks[id-1])
			id++
		}
	}
	task.AssignRateMonotonic(sys)
	// Key the simulator's release draws by the workload seed so a system's
	// sporadic/jittered timeline is as reproducible as its structure.
	sys.ReleaseSeed = cfg.Seed
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		return nil, fmt.Errorf("workload: generated system invalid: %w", err)
	}
	return sys, nil
}

// bodyWCET sums the compute segments of a built body (the generated
// task's C_i), used to keep sporadic minimum interarrivals feasible.
func bodyWCET(body []task.Segment) int {
	total := 0
	for _, seg := range body {
		if seg.Kind == task.SegCompute {
			total += seg.Duration
		}
	}
	return total
}

// uuniFast distributes total utilization among the len(out) tasks of out
// (Bini & Buttazzo's UUniFast, the standard unbiased method).
func uuniFast(rng *rand.Rand, out []float64, total float64) {
	n := len(out)
	sum := total
	for i := 0; i < n-1; i++ {
		next := sum * math.Pow(rng.Float64(), 1/float64(n-1-i))
		out[i] = sum - next
		sum = next
	}
	out[n-1] = sum
}

// buildBody carves critical sections out of wcet ticks of computation:
// a prefix compute, then alternating critical sections separated by
// compute, then a suffix compute. Sections that no longer fit are dropped.
func buildBody(rng *rand.Rand, cfg Config, wcet int, globals, locals []task.SemID) []task.Segment {
	type section struct {
		sem task.SemID
		dur int
	}
	sections := make([]section, 0, max(cfg.GcsPerTask[1], 0)+max(cfg.LcsPerTask[1], 0))
	pick := func(pool []task.SemID, bounds [2]int) {
		if len(pool) == 0 || bounds[1] <= 0 {
			return
		}
		n := bounds[0]
		if bounds[1] > bounds[0] {
			n += rng.Intn(bounds[1] - bounds[0] + 1)
		}
		for i := 0; i < n; i++ {
			dur := cfg.CSTicks[0]
			if cfg.CSTicks[1] > cfg.CSTicks[0] {
				dur += rng.Intn(cfg.CSTicks[1] - cfg.CSTicks[0] + 1)
			}
			sections = append(sections, section{sem: pool[rng.Intn(len(pool))], dur: dur})
		}
	}
	pick(globals, cfg.GcsPerTask)
	pick(locals, cfg.LcsPerTask)

	// Budget: critical sections may use at most half the computation so
	// tasks retain non-critical execution (matching the paper's "a
	// critical section is short relative to task execution time").
	budget := wcet / 2
	kept := sections[:0]
	used := 0
	for _, s := range sections {
		// A job must not relock a semaphore it holds: keep one section
		// per semaphore.
		if slices.ContainsFunc(kept, func(k section) bool { return k.sem == s.sem }) {
			continue
		}
		if used+s.dur > budget {
			continue
		}
		used += s.dur
		kept = append(kept, s)
	}
	sections = kept

	remaining := wcet - used
	gaps := len(sections) + 1
	base := remaining / gaps
	extra := remaining % gaps

	body := make([]task.Segment, 0, gaps+3*len(sections))
	for i := 0; i < gaps; i++ {
		d := base
		if i < extra {
			d++
		}
		if d > 0 {
			body = append(body, task.Compute(d))
		}
		if i < len(sections) {
			body = append(body,
				task.Lock(sections[i].sem),
				task.Compute(sections[i].dur),
				task.Unlock(sections[i].sem),
			)
		}
	}
	if len(body) == 0 {
		body = []task.Segment{task.Compute(wcet)}
	}
	return body
}
