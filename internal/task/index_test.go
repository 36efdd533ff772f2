package task_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"mpcp/internal/task"
	"mpcp/internal/workload"
)

// The reference implementations below are the scan-and-sort helpers the
// index Validate builds replaced. Every indexed lookup must return exactly
// what they return.

func refTasksOn(s *task.System, p task.ProcID) []*task.Task {
	var out []*task.Task
	for _, t := range s.Tasks {
		if t.Proc == p {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Priority > out[j].Priority })
	return out
}

func refTasksUsing(s *task.System, id task.SemID) []*task.Task {
	var out []*task.Task
	for _, t := range s.Tasks {
		for _, cs := range s.CriticalSections(t.ID) {
			if cs.Sem == id {
				out = append(out, t)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Priority > out[j].Priority })
	return out
}

func refAccessorProcs(s *task.System, id task.SemID) []task.ProcID {
	seen := make(map[task.ProcID]bool)
	for _, t := range s.Tasks {
		for _, seg := range t.Body {
			if (seg.Kind == task.SegLock || seg.Kind == task.SegUnlock) && seg.Sem == id {
				seen[t.Proc] = true
			}
		}
	}
	procs := make([]task.ProcID, 0, len(seen))
	for p := range seen {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
	return procs
}

func refGlobalSections(s *task.System, id task.ID) []task.CriticalSection {
	var out []task.CriticalSection
	for _, cs := range s.CriticalSections(id) {
		if cs.Global && cs.Outermost {
			out = append(out, cs)
		}
	}
	return out
}

func refLocalSections(s *task.System, id task.ID) []task.CriticalSection {
	var out []task.CriticalSection
	for _, cs := range s.CriticalSections(id) {
		if !cs.Global {
			out = append(out, cs)
		}
	}
	return out
}

func refNestedGlobal(s *task.System) *task.CriticalSection {
	for _, t := range s.Tasks {
		for _, cs := range s.CriticalSections(t.ID) {
			if cs.Global && (cs.Nested || !cs.Outermost) {
				return &cs
			}
		}
	}
	return nil
}

// unknownSem and unknownTask name no semaphore or task of any system the
// tests build.
const (
	unknownSem  task.SemID = -1 << 20
	unknownTask task.ID    = -1 << 20
)

// checkIndex compares every indexed helper of a validated system, and
// NestedGlobal, with its reference, slice for slice, including processors
// outside [0, NumProcs), an unknown semaphore and an unknown task. It also
// checks that Global agrees with the accessor count.
func checkIndex(t *testing.T, name string, s *task.System) {
	t.Helper()
	if !s.Validated() {
		t.Fatalf("%s: system not validated", name)
	}
	for p := task.ProcID(-1); int(p) <= s.NumProcs; p++ {
		if got, want := s.TasksOn(p), refTasksOn(s, p); !slices.Equal(got, want) {
			t.Errorf("%s: TasksOn(%d) = %v, want %v", name, p, got, want)
		}
	}
	sems := []task.SemID{unknownSem}
	for _, sem := range s.Sems {
		sems = append(sems, sem.ID)
		if got := len(s.AccessorProcs(sem.ID)) > 1; got != sem.Global {
			t.Errorf("%s: semaphore %d Global = %v with accessors %v", name, sem.ID, sem.Global, s.AccessorProcs(sem.ID))
		}
	}
	for _, id := range sems {
		if got, want := s.TasksUsing(id), refTasksUsing(s, id); !slices.Equal(got, want) {
			t.Errorf("%s: TasksUsing(%d) = %v, want %v", name, id, got, want)
		}
		if got, want := s.AccessorProcs(id), refAccessorProcs(s, id); !slices.Equal(got, want) {
			t.Errorf("%s: AccessorProcs(%d) = %v, want %v", name, id, got, want)
		}
	}
	if got, want := s.NestedGlobal(), refNestedGlobal(s); (got == nil) != (want == nil) || (got != nil && *got != *want) {
		t.Errorf("%s: NestedGlobal() = %+v, want %+v", name, got, want)
	}
	ids := []task.ID{unknownTask}
	for _, tk := range s.Tasks {
		ids = append(ids, tk.ID)
	}
	for _, id := range ids {
		if got, want := s.GlobalSections(id), refGlobalSections(s, id); !slices.Equal(got, want) {
			t.Errorf("%s: GlobalSections(%d) = %+v, want %+v", name, id, got, want)
		}
		if got, want := s.LocalSections(id), refLocalSections(s, id); !slices.Equal(got, want) {
			t.Errorf("%s: LocalSections(%d) = %+v, want %+v", name, id, got, want)
		}
	}
}

// TestIndexMatchesReferenceGenerated covers generated campaign workloads
// of several shapes over many seeds.
func TestIndexMatchesReferenceGenerated(t *testing.T) {
	shapes := map[string]func(workload.Config) workload.Config{
		"default": func(c workload.Config) workload.Config { return c },
		"wide": func(c workload.Config) workload.Config {
			c.NumProcs, c.TasksPerProc = 8, 8
			c.GcsPerTask, c.LcsPerTask = [2]int{0, 3}, [2]int{0, 3}
			return c
		},
		"hotspot": func(c workload.Config) workload.Config {
			c.Hotspot = true
			c.GcsPerTask = [2]int{1, 3}
			return c
		},
		"uniprocessor": func(c workload.Config) workload.Config {
			c.NumProcs, c.GlobalSems = 1, 0
			c.LcsPerTask = [2]int{1, 3}
			return c
		},
	}
	names := make([]string, 0, len(shapes))
	for name := range shapes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for seed := int64(1); seed <= 60; seed++ {
			sys, err := workload.Generate(shapes[name](workload.Default(seed)))
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			checkIndex(t, name+" seed "+strconv.FormatInt(seed, 10), sys)
		}
	}
}

// nestedSystem builds a random system whose bodies nest critical sections
// up to three deep, over sparse semaphore and task IDs and shuffled
// priorities, with some processors left empty.
func nestedSystem(rng *rand.Rand) *task.System {
	sys := task.NewSystem(1 + rng.Intn(4))
	nSems := 1 + rng.Intn(6)
	for i := 0; i < nSems; i++ {
		sys.AddSem(&task.Semaphore{ID: task.SemID(7*i - 5)})
	}
	nTasks := 1 + rng.Intn(8)
	prios := rng.Perm(nTasks)
	for i := 0; i < nTasks; i++ {
		var body []task.Segment
		var open []task.SemID
		for step := rng.Intn(12); step > 0 || len(open) > 0; step-- {
			sem := sys.Sems[rng.Intn(nSems)].ID
			switch {
			case step <= 0 || (len(open) > 0 && rng.Intn(3) == 0):
				body = append(body, task.Unlock(open[len(open)-1]))
				open = open[:len(open)-1]
			case len(open) < 3 && !slices.Contains(open, sem) && rng.Intn(2) == 0:
				body = append(body, task.Lock(sem))
				open = append(open, sem)
			default:
				body = append(body, task.Compute(rng.Intn(4)))
			}
		}
		body = append(body, task.Compute(1))
		sys.AddTask(&task.Task{
			ID: task.ID(100 - 3*i), Proc: task.ProcID(rng.Intn(sys.NumProcs)),
			Period: 1000, Priority: 10 * (prios[i] + 1), Body: body,
		})
	}
	return sys
}

func TestIndexMatchesReferenceNested(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		sys := nestedSystem(rng)
		if err := sys.Validate(task.ValidateOptions{AllowNestedGlobal: true}); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkIndex(t, "nested trial "+strconv.Itoa(trial), sys)
	}
}

// TestIndexMatchesReferenceCorpus replays the checked-in FuzzValidateBody
// corpus.
func TestIndexMatchesReferenceCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzValidateBody", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus: %v (%d files)", err, len(files))
	}
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: unexpected corpus format", file)
		}
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		sys := fuzzSystem([]byte(data))
		if err := sys.Validate(task.ValidateOptions{AllowNestedGlobal: true}); err != nil {
			continue
		}
		checkIndex(t, filepath.Base(file), sys)
	}
}

func TestIndexEdges(t *testing.T) {
	sys := task.NewSystem(3) // processor 2 has no tasks
	sys.AddSem(&task.Semaphore{ID: 1})
	sys.AddSem(&task.Semaphore{ID: 2}) // no users
	sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 10, Priority: 2,
		Body: []task.Segment{task.Lock(1), task.Compute(1), task.Unlock(1)}})
	sys.AddTask(&task.Task{ID: 2, Proc: 1, Period: 20, Priority: 1,
		Body: []task.Segment{task.Compute(2)}})
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	checkIndex(t, "edges", sys)
	for _, p := range []task.ProcID{-1, 2, 3, 1 << 20} {
		if got := sys.TasksOn(p); len(got) != 0 {
			t.Errorf("TasksOn(%d) = %v, want empty", p, got)
		}
	}
	for _, id := range []task.SemID{2, 99} {
		if got := sys.TasksUsing(id); len(got) != 0 {
			t.Errorf("TasksUsing(%d) = %v, want empty", id, got)
		}
		if got := sys.AccessorProcs(id); len(got) != 0 {
			t.Errorf("AccessorProcs(%d) = %v, want empty", id, got)
		}
	}
	// Processor numbers come from outside input: the index must be sized
	// by the processors in use, not by the largest number.
	far := task.NewSystem(1 << 30)
	far.AddTask(&task.Task{ID: 1, Proc: 1<<30 - 1, Period: 10, Priority: 1, Body: []task.Segment{task.Compute(1)}})
	if err := far.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := far.TasksOn(1<<30 - 1); len(got) != 1 || got[0].ID != 1 {
		t.Errorf("TasksOn(2^30-1) = %v, want task 1", got)
	}
	if got := sys.GlobalSections(99); len(got) != 0 {
		t.Errorf("GlobalSections(99) = %v, want empty", got)
	}
	if got := sys.LocalSections(2); len(got) != 0 {
		t.Errorf("LocalSections(2) = %v, want empty", got)
	}
}

// TestIndexRevalidation: the index follows AddTask, AddSem and a priority
// reassignment once the system is validated again.
func TestIndexRevalidation(t *testing.T) {
	sys := task.NewSystem(2)
	sys.AddSem(&task.Semaphore{ID: 1})
	sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 40, Priority: 2,
		Body: []task.Segment{task.Lock(1), task.Compute(1), task.Unlock(1)}})
	sys.AddTask(&task.Task{ID: 2, Proc: 0, Period: 10, Priority: 1,
		Body: []task.Segment{task.Compute(1)}})
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	checkIndex(t, "initial", sys)
	if sys.SemByID(1).Global {
		t.Fatal("semaphore 1 used from one processor is global")
	}

	sys.AddSem(&task.Semaphore{ID: 2})
	sys.AddTask(&task.Task{ID: 3, Proc: 1, Period: 20, Priority: 3,
		Body: []task.Segment{task.Lock(1), task.Compute(1), task.Unlock(1),
			task.Lock(2), task.Compute(1), task.Unlock(2)}})
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	checkIndex(t, "after AddTask and AddSem", sys)
	if !sys.SemByID(1).Global || len(sys.GlobalSections(3)) != 1 || len(sys.LocalSections(3)) != 1 {
		t.Fatalf("new task not indexed: global=%v gcs=%v lcs=%v",
			sys.SemByID(1).Global, sys.GlobalSections(3), sys.LocalSections(3))
	}
	if users := sys.TasksUsing(1); len(users) != 2 || users[0].ID != 3 {
		t.Fatalf("TasksUsing(1) = %v, want task 3 first", users)
	}

	task.AssignRateMonotonic(sys) // periods 40, 10, 20: task 2 becomes highest
	if err := sys.Validate(task.ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	checkIndex(t, "after AssignRateMonotonic", sys)
	if on0 := sys.TasksOn(0); len(on0) != 2 || on0[0].ID != 2 {
		t.Fatalf("TasksOn(0) = %v, want task 2 first", on0)
	}
	if users := sys.TasksUsing(1); len(users) != 2 || users[0].ID != 3 {
		t.Fatalf("TasksUsing(1) = %v, want task 3 first", users)
	}
}
