package task_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"mpcp/internal/ceiling"
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

// refCeilings is the map-building ceiling.Compute that the ceilings
// compiled at Validate replaced, over the reference users above.
func refCeilings(sys *task.System, atCeiling bool) *ceiling.Table {
	t := &ceiling.Table{
		LocalCeil:  make(map[task.SemID]int),
		GlobalCeil: make(map[task.SemID]int),
		GcsPrio:    make(map[ceiling.Key]int),
	}
	for i, tk := range sys.Tasks {
		if i == 0 || tk.Priority > t.PH {
			t.PH = tk.Priority
		}
	}
	t.PG = t.PH + 1

	for _, sem := range sys.Sems {
		users := refTasksUsing(sys, sem.ID)
		if len(users) == 0 {
			continue
		}
		if !sem.Global {
			t.LocalCeil[sem.ID] = users[0].Priority
			continue
		}
		t.GlobalCeil[sem.ID] = t.PG + users[0].Priority
		for _, u := range users {
			if atCeiling {
				t.GcsPrio[ceiling.Key{Task: u.ID, Sem: sem.ID}] = t.GlobalCeil[sem.ID]
				continue
			}
			highestRemote := 0
			for _, v := range users {
				if v.Proc != u.Proc && v.Priority > highestRemote {
					highestRemote = v.Priority
				}
			}
			t.GcsPrio[ceiling.Key{Task: u.ID, Sem: sem.ID}] = t.PG + highestRemote
		}
	}
	return t
}

// checkCompiled compares the position-addressed view of a validated
// system with the ID-keyed helpers and with refCeilings: P_H and P_G, every
// semaphore's ceiling, every section's position, duration and priority
// under both gcs priority assignments, WCETs, processor positions, and the
// ceiling.Compute adapter's tables.
func checkCompiled(t *testing.T, name string, s *task.System) {
	t.Helper()
	x := s.Index()
	for _, atCeiling := range []bool{false, true} {
		ref := refCeilings(s, atCeiling)
		if got := ceiling.Compute(s, atCeiling); !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: ceiling.Compute(atCeiling=%v) = %+v, want %+v", name, atCeiling, got, ref)
		}
		if x.PH() != ref.PH || x.PG() != ref.PG {
			t.Errorf("%s: PH, PG = %d, %d, want %d, %d", name, x.PH(), x.PG(), ref.PH, ref.PG)
		}
		for k, sem := range s.Sems {
			want, ok := ref.GlobalCeil[sem.ID]
			if !sem.Global {
				want, ok = ref.LocalCeil[sem.ID]
			}
			if got := x.Ceiling(k); got != want || (!ok && len(x.Users(k)) != 0) {
				t.Errorf("%s: Ceiling(%d) = %d, want %d (tabled %v)", name, k, got, want, ok)
			}
		}
		for i, tk := range s.Tasks {
			checkSecs(t, name, s, tk, x.Global(i), s.GlobalSections(tk.ID), ref, atCeiling)
			checkSecs(t, name, s, tk, x.Local(i), s.LocalSections(tk.ID), ref, atCeiling)
		}
	}
	var onProc []int
	for q := 0; q < x.Procs(); q++ {
		for _, i := range x.OnProc(q) {
			if x.Proc(i) != q || !slices.Equal(s.TasksOn(s.Tasks[i].Proc), tasksAt(s, x.OnProc(q))) {
				t.Errorf("%s: processor position %d lists task %d of position %d", name, q, i, x.Proc(i))
			}
			onProc = append(onProc, i)
		}
	}
	for i, tk := range s.Tasks {
		if x.WCET(i) != tk.WCET() {
			t.Errorf("%s: WCET(%d) = %d, want %d", name, i, x.WCET(i), tk.WCET())
		}
		if pos, ok := x.TaskPos(tk.ID); !ok || pos != i {
			t.Errorf("%s: TaskPos(%d) = %d, %v, want %d", name, tk.ID, pos, ok, i)
		}
	}
	if slices.Sort(onProc); !slices.Equal(onProc, tasksIndices(len(s.Tasks))) {
		t.Errorf("%s: processor positions list tasks %v", name, onProc)
	}
	for k, sem := range s.Sems {
		var procs []task.ProcID
		for _, q := range x.Accessors(k) {
			procs = append(procs, x.ProcID(q))
		}
		if !slices.Equal(procs, s.AccessorProcs(sem.ID)) {
			t.Errorf("%s: Accessors(%d) name processors %v, want %v", name, k, procs, s.AccessorProcs(sem.ID))
		}
		if pos, ok := x.SemPos(sem.ID); !ok || pos != k {
			t.Errorf("%s: SemPos(%d) = %d, %v, want %d", name, sem.ID, pos, ok, k)
		}
	}
}

// checkSecs compares task tk's compiled sections with its critical
// sections and the reference priorities: a global section's gcs priority,
// or under atCeiling its semaphore's global ceiling, and a local section's
// ceiling.
func checkSecs(t *testing.T, name string, s *task.System, tk *task.Task, secs []task.Sec, css []task.CriticalSection,
	ref *ceiling.Table, atCeiling bool) {
	t.Helper()
	if len(secs) != len(css) {
		t.Errorf("%s: task %d has %d compiled sections, want %d", name, tk.ID, len(secs), len(css))
		return
	}
	for n, sec := range secs {
		cs, got, want := css[n], sec.Prio, ref.LocalCeil[css[n].Sem]
		if cs.Global {
			want = ref.GcsPrio[ceiling.Key{Task: tk.ID, Sem: cs.Sem}]
			if atCeiling {
				got = s.Index().Ceiling(sec.Sem)
			}
		}
		if s.Sems[sec.Sem].ID != cs.Sem || sec.Dur != cs.Duration || got != want {
			t.Errorf("%s: task %d section %d = %+v (priority %d), want semaphore %d, %d ticks, priority %d",
				name, tk.ID, n, sec, got, cs.Sem, cs.Duration, want)
		}
	}
}

func tasksAt(s *task.System, pos []int) []*task.Task {
	out := make([]*task.Task, len(pos))
	for n, i := range pos {
		out[n] = s.Tasks[i]
	}
	return out
}

func tasksIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
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
	checkCompiled(t, name, s)
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
