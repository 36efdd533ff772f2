// Package task defines the workload model of the paper: periodic tasks
// statically bound to processors (Section 3.2), whose jobs are sequences of
// compute segments interleaved with P()/V() operations on binary semaphores
// (Section 3.1). It also derives the structural facts every protocol and
// every analysis needs: which semaphores are global, which critical
// sections belong to which task, and the priority ceilings of Section 4.
package task

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// ID identifies a task within a System.
type ID int

// SemID identifies a semaphore within a System.
type SemID int

// ProcID identifies a processor. Processors are numbered 0..NumProcs-1.
type ProcID int

// SegmentKind discriminates the instructions in a job body.
type SegmentKind int

// Segment kinds. Compute consumes time; Lock and Unlock are the indivisible
// P(S) and V(S) operations of Section 3.1 and consume no simulated time
// themselves (queueing overhead is modeled separately by internal/shmem).
const (
	SegCompute SegmentKind = iota + 1
	SegLock
	SegUnlock
)

func (k SegmentKind) String() string {
	switch k {
	case SegCompute:
		return "compute"
	case SegLock:
		return "lock"
	case SegUnlock:
		return "unlock"
	default:
		return fmt.Sprintf("SegmentKind(%d)", int(k))
	}
}

// Segment is one instruction of a job body.
type Segment struct {
	Kind     SegmentKind
	Duration int   // ticks; meaningful only for SegCompute
	Sem      SemID // meaningful only for SegLock / SegUnlock
}

// Compute returns a compute segment of d ticks.
func Compute(d int) Segment { return Segment{Kind: SegCompute, Duration: d} }

// Lock returns a P(s) segment.
func Lock(s SemID) Segment { return Segment{Kind: SegLock, Sem: s} }

// Unlock returns a V(s) segment.
func Unlock(s SemID) Segment { return Segment{Kind: SegUnlock, Sem: s} }

// Task is a periodic task statically bound to one processor. Priority is a
// base (assigned) priority where a numerically larger value means higher
// priority; distinct tasks must have distinct priorities so that the
// system-wide ordering P1 > P2 > ... of Section 3.1 is well defined.
type Task struct {
	ID       ID
	Name     string
	Proc     ProcID
	Period   int
	Deadline int // relative deadline; 0 means Deadline = Period
	Offset   int // arrival time of the first job
	Priority int // base priority, larger = higher
	Body     []Segment

	// MinInterarrival switches the task to the sporadic model: successive
	// arrivals are separated by a seed-derived gap drawn uniformly from
	// [MinInterarrival, 2*Period-MinInterarrival], so Period remains the
	// mean rate and the analyses' worst case is the minimum separation.
	// 0 means strictly periodic (gap = Period exactly);
	// MinInterarrival == Period degenerates to the periodic sequence too.
	MinInterarrival int
	// Jitter delays each job's release after its arrival by a seed-derived
	// amount drawn uniformly from [0, Jitter]. The absolute deadline stays
	// anchored to the arrival, so jitter eats into the job's slack exactly
	// as in the classic jitter-aware response-time analysis.
	Jitter int
}

// WCET returns the task's computation requirement C_i: the sum of its
// compute segments.
func (t *Task) WCET() int {
	total := 0
	for _, seg := range t.Body {
		if seg.Kind == SegCompute {
			total += seg.Duration
		}
	}
	return total
}

// RelativeDeadline returns the task's relative deadline, defaulting to its
// period as in the rate-monotonic model of [6].
func (t *Task) RelativeDeadline() int {
	if t.Deadline > 0 {
		return t.Deadline
	}
	return t.Period
}

// IsSporadic reports whether the task uses the sporadic release model
// (a positive minimum interarrival time).
func (t *Task) IsSporadic() bool { return t.MinInterarrival > 0 }

// EffectiveMinInterarrival returns the minimum separation between
// successive arrivals: MinInterarrival for sporadic tasks, Period for
// periodic ones. This is the denominator of every interference and
// blocking-frequency term in the jitter-aware analyses.
func (t *Task) EffectiveMinInterarrival() int {
	if t.MinInterarrival > 0 {
		return t.MinInterarrival
	}
	return t.Period
}

// HasReleaseVariance reports whether the task's release sequence depends
// on seed-derived draws: sporadic with a minimum interarrival strictly
// below the period, or nonzero jitter. Variance-free tasks release on the
// fixed periodic calendar regardless of seed.
func (t *Task) HasReleaseVariance() bool {
	return (t.MinInterarrival > 0 && t.MinInterarrival < t.Period) || t.Jitter > 0
}

// Utilization returns C_i / T_i.
func (t *Task) Utilization() float64 {
	if t.Period == 0 {
		return 0
	}
	return float64(t.WCET()) / float64(t.Period)
}

// Semaphore is a binary semaphore guarding a shared resource. Global is
// derived during System validation: a semaphore is global exactly when
// tasks bound to more than one processor access it (Section 4.2).
type Semaphore struct {
	ID     SemID
	Name   string
	Global bool
}

// CriticalSection describes one critical section of a task: the semaphore,
// the sum of compute time strictly inside it (including nested sections),
// and its nesting structure.
type CriticalSection struct {
	Task      ID
	Sem       SemID
	Duration  int  // compute ticks between the Lock and its matching Unlock
	Outermost bool // not nested inside another critical section
	Nested    bool // contains another critical section
	Global    bool // guarded by a global semaphore
	StartSeg  int  // index of the Lock segment in the task body
	EndSeg    int  // index of the matching Unlock segment
}

// System is a complete multiprocessor workload: the processor count, the
// task set and the semaphores they share. Build one with NewSystem, add
// tasks and semaphores, then call Validate (or use the Builder in the
// public API package) before handing it to a simulator or an analysis.
type System struct {
	NumProcs int
	Tasks    []*Task
	Sems     []*Semaphore

	// ReleaseSeed keys the deterministic sporadic-gap and jitter draws of
	// every task in the system. Two runs of the same system with the same
	// seed produce byte-identical release sequences; it is irrelevant (and
	// ignored) when no task has release variance.
	ReleaseSeed int64

	// Derived by Validate:
	idx       Index
	validated bool
}

// Index is the structure Validate compiles once. It addresses tasks,
// semaphores and processors by position: task i is Tasks[i], semaphore k
// is Sems[k], and processor positions number the processors that have
// tasks, in order of first appearance in Tasks. Analyses and protocols
// read it through System.Index; the ID-keyed helpers of System are thin
// wrappers that translate an ID through one map and return the same
// slices. Every slice is shared and clipped to its length, so an append
// by a caller copies rather than overwriting its neighbour in the shared
// backing array; none may be modified.
type Index struct {
	taskPos   map[ID]int       // position in Tasks
	semPos    map[SemID]int    // position in Sems
	procPos   map[ProcID]int   // processor position
	tasks     []taskIndex      // parallel to Tasks
	users     [][]*Task        // parallel to Sems, descending priority
	accessors [][]ProcID       // parallel to Sems, ascending
	accPos    [][]int          // parallel to accessors: processor positions
	ceil      []int            // parallel to Sems: Section 4 ceilings
	onProc    [][]*Task        // per processor position, descending priority
	procTasks [][]int          // parallel to onProc: task positions
	nested    *CriticalSection // first nested global section, or nil
	ph        int              // P_H
}

type taskIndex struct {
	all    []CriticalSection // every section, in the order of its V(S)
	global []CriticalSection // outermost global sections
	local  []CriticalSection // local sections
	gsecs  []Sec             // parallel to global
	lsecs  []Sec             // parallel to local
	wcet   int
	proc   int // processor position
}

// Sec is the position-addressed form of an outermost global or a local
// critical section: the position of its semaphore in Sems, its compute
// ticks, and the priority Section 4 gives it. For a global section that is
// the gcs execution priority P_G + P_h of Section 4.4; for a local one it
// is the semaphore's priority ceiling.
type Sec struct {
	Sem  int
	Dur  int
	Prio int
}

func (x *Index) task(id ID) taskIndex {
	if i, ok := x.taskPos[id]; ok {
		return x.tasks[i]
	}
	return taskIndex{}
}

func (x *Index) sem(id SemID) (users []*Task, accessors []ProcID) {
	if k, ok := x.semPos[id]; ok {
		return x.users[k], x.accessors[k]
	}
	return nil, nil
}

// Index returns the position-addressed view Validate compiled. The System
// must have been validated.
func (s *System) Index() *Index { return &s.idx }

// PH returns P_H, the highest priority assigned to any task (Section 4.4).
func (x *Index) PH() int { return x.ph }

// PG returns P_G, the base priority ceiling of global semaphores: P_H + 1.
func (x *Index) PG() int { return x.ph + 1 }

// WCET returns C_i of task i.
func (x *Index) WCET(i int) int { return x.tasks[i].wcet }

// Proc returns the processor position of task i.
func (x *Index) Proc(i int) int { return x.tasks[i].proc }

// Global returns the outermost global sections of task i, in body order.
func (x *Index) Global(i int) []Sec { return x.tasks[i].gsecs }

// Local returns the local sections of task i, in body order.
func (x *Index) Local(i int) []Sec { return x.tasks[i].lsecs }

// Procs returns the number of processor positions: the processors that
// have tasks.
func (x *Index) Procs() int { return len(x.procTasks) }

// ProcID returns the processor at position q.
func (x *Index) ProcID(q int) ProcID { return x.onProc[q][0].Proc }

// OnProc returns the positions of the tasks on processor position q, by
// descending priority.
func (x *Index) OnProc(q int) []int { return x.procTasks[q] }

// Users returns the tasks that access semaphore k, by descending priority.
func (x *Index) Users(k int) []*Task { return x.users[k] }

// Accessors returns the processor positions from which semaphore k is
// accessed, in ascending processor order.
func (x *Index) Accessors(k int) []int { return x.accPos[k] }

// Ceiling returns the priority ceiling of semaphore k (Section 4): the
// priority of its highest-priority user for a local semaphore, P_G plus
// that priority for a global one, and 0 for a semaphore nobody uses.
func (x *Index) Ceiling(k int) int { return x.ceil[k] }

// GcsPrio returns the Section 4.4 execution priority of a gcs on global
// semaphore k issued from processor p: P_G plus the highest priority of
// the semaphore's users on other processors, or P_G when there is none
// above zero.
func (x *Index) GcsPrio(k int, p ProcID) int {
	for _, u := range x.users[k] { // descending priority: the first remote user is the highest
		if u.Proc != p {
			return x.PG() + max(u.Priority, 0)
		}
	}
	return x.PG()
}

// TaskPos returns the position of task id in Tasks.
func (x *Index) TaskPos(id ID) (int, bool) {
	i, ok := x.taskPos[id]
	return i, ok
}

// SemPos returns the position of semaphore id in Sems.
func (x *Index) SemPos(id SemID) (int, bool) {
	k, ok := x.semPos[id]
	return k, ok
}

// carve returns one empty slice per count, all sharing one backing array
// of total elements, slice k with capacity counts[k], so appends fill
// them in place.
func carve[E any](counts []int, total int) [][]E {
	backing := make([]E, total)
	out := make([][]E, len(counts))
	for k, n := range counts {
		out[k], backing = backing[:0:n], backing[n:]
	}
	return out
}

// NewSystem returns an empty system with the given number of processors.
func NewSystem(numProcs int) *System {
	return &System{NumProcs: numProcs}
}

// Clone deep-copies the system onto numProcs processors (pass s.NumProcs
// to keep the count). Task bodies are copied, so mutations to the clone
// never leak back. The clone is returned unvalidated: callers adjust it
// and run Validate themselves.
func (s *System) Clone(numProcs int) *System {
	out := NewSystem(numProcs)
	out.ReleaseSeed = s.ReleaseSeed
	for _, sem := range s.Sems {
		out.AddSem(&Semaphore{ID: sem.ID, Name: sem.Name})
	}
	for _, t := range s.Tasks {
		cp := *t
		cp.Body = append([]Segment{}, t.Body...)
		out.AddTask(&cp)
	}
	return out
}

// AddTask appends a task and returns it for further configuration.
func (s *System) AddTask(t *Task) *Task {
	s.Tasks = append(s.Tasks, t)
	s.validated = false
	return t
}

// AddSem appends a semaphore and returns it.
func (s *System) AddSem(sem *Semaphore) *Semaphore {
	s.Sems = append(s.Sems, sem)
	s.validated = false
	return sem
}

// TaskByID returns the task with the given ID, or nil.
func (s *System) TaskByID(id ID) *Task {
	for _, t := range s.Tasks {
		if t.ID == id {
			return t
		}
	}
	return nil
}

// SemByID returns the semaphore with the given ID, or nil.
func (s *System) SemByID(id SemID) *Semaphore {
	for _, sem := range s.Sems {
		if sem.ID == id {
			return sem
		}
	}
	return nil
}

// Validation errors that callers may want to match.
var (
	ErrNoTasks            = errors.New("system has no tasks")
	ErrNoProcs            = errors.New("system has no processors")
	ErrDuplicateTaskID    = errors.New("duplicate task id")
	ErrDuplicateSemID     = errors.New("duplicate semaphore id")
	ErrDuplicatePriority  = errors.New("duplicate task priority")
	ErrBadBinding         = errors.New("task bound to nonexistent processor")
	ErrBadPeriod          = errors.New("task period must be positive")
	ErrUnknownSemaphore   = errors.New("body references unknown semaphore")
	ErrUnbalancedLocks    = errors.New("unbalanced lock/unlock in body")
	ErrSelfDeadlock       = errors.New("body locks a semaphore it already holds")
	ErrNestedGlobal       = errors.New("nested global critical section")
	ErrNegativeDuration   = errors.New("compute segment with negative duration")
	ErrHeldAtCompletion   = errors.New("semaphore still held at end of body")
	ErrNegativeOffset     = errors.New("task offset must be non-negative")
	ErrOffsetTooLarge     = errors.New("task offset beyond hyperperiod")
	ErrNegativeJitter     = errors.New("task jitter must be non-negative")
	ErrJitterTooLarge     = errors.New("task jitter exceeds period")
	ErrBadMinInterarrival = errors.New("sporadic minimum interarrival out of range")
	ErrMinBelowCost       = errors.New("sporadic minimum interarrival below task cost")
)

// ValidateOptions tunes validation. The paper's base protocol forbids
// global critical sections from nesting or being nested (Section 4.2);
// AllowNestedGlobal relaxes that for the Section 5.1 nested-gcs study,
// in which case callers are responsible for a deadlock-free partial order.
type ValidateOptions struct {
	AllowNestedGlobal bool
}

// Validate checks structural well-formedness, derives which semaphores are
// global, and extracts every task's critical sections. It must be called
// (directly or via the facade) before simulation or analysis.
func (s *System) Validate(opts ValidateOptions) error {
	if s.NumProcs <= 0 {
		return ErrNoProcs
	}
	if len(s.Tasks) == 0 {
		return ErrNoTasks
	}

	taskPos := make(map[ID]int, len(s.Tasks))
	seenPrio := make(map[int]ID, len(s.Tasks))
	procPos := make(map[ProcID]int, min(s.NumProcs, len(s.Tasks)))
	for i, t := range s.Tasks {
		if _, dup := taskPos[t.ID]; dup {
			return fmt.Errorf("%w: %d", ErrDuplicateTaskID, t.ID)
		}
		taskPos[t.ID] = i
		if other, dup := seenPrio[t.Priority]; dup {
			return fmt.Errorf("%w: tasks %d and %d share priority %d",
				ErrDuplicatePriority, other, t.ID, t.Priority)
		}
		seenPrio[t.Priority] = t.ID
		if t.Proc < 0 || int(t.Proc) >= s.NumProcs {
			return fmt.Errorf("%w: task %d on processor %d of %d",
				ErrBadBinding, t.ID, t.Proc, s.NumProcs)
		}
		if t.Period <= 0 {
			return fmt.Errorf("%w: task %d", ErrBadPeriod, t.ID)
		}
		if _, ok := procPos[t.Proc]; !ok {
			procPos[t.Proc] = len(procPos)
		}
	}

	// Release-model checks need every period validated first: the offset
	// bound is the system hyperperiod.
	hyper := s.Hyperperiod()
	for _, t := range s.Tasks {
		if t.Offset < 0 {
			return fmt.Errorf("%w: task %d offset %d", ErrNegativeOffset, t.ID, t.Offset)
		}
		if t.Offset > hyper {
			return fmt.Errorf("%w: task %d offset %d, hyperperiod %d",
				ErrOffsetTooLarge, t.ID, t.Offset, hyper)
		}
		if t.Jitter < 0 {
			return fmt.Errorf("%w: task %d jitter %d", ErrNegativeJitter, t.ID, t.Jitter)
		}
		if t.Jitter > t.Period {
			return fmt.Errorf("%w: task %d jitter %d, period %d",
				ErrJitterTooLarge, t.ID, t.Jitter, t.Period)
		}
		if t.MinInterarrival < 0 || t.MinInterarrival > t.Period {
			return fmt.Errorf("%w: task %d min interarrival %d, period %d",
				ErrBadMinInterarrival, t.ID, t.MinInterarrival, t.Period)
		}
		if t.MinInterarrival > 0 && t.MinInterarrival < t.WCET() {
			return fmt.Errorf("%w: task %d min interarrival %d, cost %d",
				ErrMinBelowCost, t.ID, t.MinInterarrival, t.WCET())
		}
	}

	semPos := make(map[SemID]int, len(s.Sems))
	for k, sem := range s.Sems {
		if _, dup := semPos[sem.ID]; dup {
			return fmt.Errorf("%w: %d", ErrDuplicateSemID, sem.ID)
		}
		semPos[sem.ID] = k
	}

	// Count the P(S) operations per semaphore and the tasks per
	// processor: they size every table of the index.
	locks, perProc := make([]int, len(s.Sems)), make([]int, len(procPos))
	nSecs := 0
	for _, t := range s.Tasks {
		perProc[procPos[t.Proc]]++
		for _, seg := range t.Body {
			if seg.Kind != SegLock && seg.Kind != SegUnlock {
				continue
			}
			k, ok := semPos[seg.Sem]
			if !ok {
				return fmt.Errorf("%w: task %d, semaphore %d",
					ErrUnknownSemaphore, t.ID, seg.Sem)
			}
			if seg.Kind == SegLock {
				locks[k]++
				nSecs++
			}
		}
	}

	// Visiting tasks by descending priority fills each processor's task
	// list and each semaphore's users in that order. A semaphore's
	// accessors are its users' processors, and more than one makes it
	// global (Section 4.2). Its ceiling is its highest user's priority,
	// raised by P_G when it is global (Section 4.4).
	byPrio := make([]int, len(s.Tasks))
	for i := range byPrio {
		byPrio[i] = i
	}
	slices.SortFunc(byPrio, func(a, b int) int { return cmp.Compare(s.Tasks[b].Priority, s.Tasks[a].Priority) })
	idx := Index{
		taskPos:   taskPos,
		semPos:    semPos,
		procPos:   procPos,
		tasks:     make([]taskIndex, len(s.Tasks)),
		onProc:    carve[*Task](perProc, len(s.Tasks)),
		procTasks: carve[int](perProc, len(s.Tasks)),
		users:     carve[*Task](locks, nSecs),
		accessors: carve[ProcID](locks, nSecs),
		accPos:    carve[int](locks, nSecs),
		ceil:      make([]int, len(s.Sems)),
		ph:        s.HighestPriority(),
	}
	for _, i := range byPrio {
		t, q := s.Tasks[i], procPos[s.Tasks[i].Proc]
		idx.onProc[q] = append(idx.onProc[q], t)
		idx.procTasks[q] = append(idx.procTasks[q], i)
		for _, seg := range t.Body {
			if seg.Kind != SegLock {
				continue
			}
			k := semPos[seg.Sem]
			if u := idx.users[k]; len(u) == 0 || u[len(u)-1] != t {
				idx.users[k] = append(u, t)
			}
		}
	}
	for k, sem := range s.Sems {
		for _, u := range idx.users[k] {
			idx.accessors[k] = append(idx.accessors[k], u.Proc)
		}
		slices.Sort(idx.accessors[k])
		idx.users[k], idx.accessors[k] = slices.Clip(idx.users[k]), slices.Clip(slices.Compact(idx.accessors[k]))
		for _, p := range idx.accessors[k] {
			idx.accPos[k] = append(idx.accPos[k], procPos[p])
		}
		idx.accPos[k] = slices.Clip(idx.accPos[k])
		sem.Global = len(idx.accessors[k]) > 1
		if users := idx.users[k]; len(users) > 0 {
			idx.ceil[k] = users[0].Priority
			if sem.Global {
				idx.ceil[k] += idx.PG()
			}
		}
	}

	// Walk each body: match lock/unlock, extract critical sections, then
	// file each task's outermost global and local sections, with their
	// positions and Section 4 priorities alongside. Every table is a
	// window of one backing array sized by nSecs.
	all, secs := make([]CriticalSection, 0, nSecs), make([]CriticalSection, 0, nSecs)
	refs := make([]Sec, 0, nSecs)
	pack := func(css []CriticalSection, global bool, proc ProcID) ([]CriticalSection, []Sec) {
		lo := len(secs)
		for _, cs := range css {
			if cs.Global != global || (global && !cs.Outermost) {
				continue
			}
			k := semPos[cs.Sem]
			prio := idx.ceil[k]
			if global {
				prio = idx.GcsPrio(k, proc)
			}
			secs = append(secs, cs)
			refs = append(refs, Sec{Sem: k, Dur: cs.Duration, Prio: prio})
		}
		return slices.Clip(secs[lo:]), slices.Clip(refs[lo:])
	}
	for i, t := range s.Tasks {
		lo := len(all)
		var err error
		if all, err = extractCriticalSections(all, t, s.Sems, semPos, opts); err != nil {
			return err
		}
		css := slices.Clip(all[lo:])
		if k := slices.IndexFunc(css, isNestedGlobal); k >= 0 && idx.nested == nil {
			idx.nested = &css[k]
		}
		ti := taskIndex{all: css, wcet: t.WCET(), proc: procPos[t.Proc]}
		ti.global, ti.gsecs = pack(css, true, t.Proc)
		ti.local, ti.lsecs = pack(css, false, t.Proc)
		idx.tasks[i] = ti
	}

	s.idx = idx
	s.validated = true
	return nil
}

type openCS struct {
	sem      SemID
	startSeg int
	duration int
	nested   bool
}

// extractCriticalSections appends task t's critical sections to out, in
// the order their V(S) operations appear.
func extractCriticalSections(out []CriticalSection, t *Task, sems []*Semaphore, semPos map[SemID]int,
	opts ValidateOptions) ([]CriticalSection, error) {
	var buf [4]openCS
	stack := buf[:0]
	for i, seg := range t.Body {
		switch seg.Kind {
		case SegCompute:
			if seg.Duration < 0 {
				return nil, fmt.Errorf("%w: task %d segment %d", ErrNegativeDuration, t.ID, i)
			}
			for k := range stack {
				stack[k].duration += seg.Duration
			}
		case SegLock:
			if slices.ContainsFunc(stack, func(o openCS) bool { return o.sem == seg.Sem }) {
				return nil, fmt.Errorf("%w: task %d, semaphore %d", ErrSelfDeadlock, t.ID, seg.Sem)
			}
			if !opts.AllowNestedGlobal && len(stack) > 0 {
				inner := sems[semPos[seg.Sem]].Global
				outer := sems[semPos[stack[len(stack)-1].sem]].Global
				if inner || outer {
					return nil, fmt.Errorf("%w: task %d, semaphore %d inside %d",
						ErrNestedGlobal, t.ID, seg.Sem, stack[len(stack)-1].sem)
				}
			}
			if len(stack) > 0 {
				stack[len(stack)-1].nested = true
			}
			stack = append(stack, openCS{sem: seg.Sem, startSeg: i})
		case SegUnlock:
			if len(stack) == 0 || stack[len(stack)-1].sem != seg.Sem {
				return nil, fmt.Errorf("%w: task %d segment %d unlocks %d",
					ErrUnbalancedLocks, t.ID, i, seg.Sem)
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			out = append(out, CriticalSection{
				Task:      t.ID,
				Sem:       top.sem,
				Duration:  top.duration,
				Outermost: len(stack) == 0,
				Nested:    top.nested,
				Global:    sems[semPos[top.sem]].Global,
				StartSeg:  top.startSeg,
				EndSeg:    i,
			})
		default:
			return nil, fmt.Errorf("task %d segment %d: unknown kind %v", t.ID, i, seg.Kind)
		}
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("%w: task %d, semaphore %d", ErrHeldAtCompletion, t.ID, stack[len(stack)-1].sem)
	}
	return out, nil
}

// Validated reports whether Validate has succeeded since the last mutation.
func (s *System) Validated() bool { return s.validated }

// CriticalSections returns the critical sections of task id, in body order.
// The System must have been validated.
func (s *System) CriticalSections(id ID) []CriticalSection {
	return s.idx.task(id).all
}

// NestedGlobal returns the first global critical section, in task order,
// that nests or is nested in another section, or nil. Only a System
// validated with AllowNestedGlobal has one. The System must have been
// validated; the section is shared and must not be modified.
func (s *System) NestedGlobal() *CriticalSection { return s.idx.nested }

func isNestedGlobal(cs CriticalSection) bool { return cs.Global && (cs.Nested || !cs.Outermost) }

// GlobalSections returns the outermost global critical sections of task
// id, in body order. The System must have been validated; the returned
// slice is shared and must not be modified.
func (s *System) GlobalSections(id ID) []CriticalSection { return s.idx.task(id).global }

// LocalSections returns the critical sections of task id that are guarded
// by local semaphores, in body order. The System must have been
// validated; the returned slice is shared and must not be modified.
func (s *System) LocalSections(id ID) []CriticalSection { return s.idx.task(id).local }

// AccessorProcs returns the processors from which semaphore id is
// accessed, in ascending order. The System must have been validated; the
// returned slice is shared and must not be modified.
func (s *System) AccessorProcs(id SemID) []ProcID {
	_, accessors := s.idx.sem(id)
	return accessors
}

// TasksUsing returns the tasks that access semaphore id, sorted by
// descending priority. The System must have been validated; the returned
// slice is shared and must not be modified.
func (s *System) TasksUsing(id SemID) []*Task {
	users, _ := s.idx.sem(id)
	return users
}

// TasksOn returns the tasks bound to processor p, sorted by descending
// priority. The System must have been validated; the returned slice is
// shared and must not be modified.
func (s *System) TasksOn(p ProcID) []*Task {
	if i, ok := s.idx.procPos[p]; ok {
		return s.idx.onProc[i]
	}
	return nil
}

// HighestPriority returns P_H, the highest base priority assigned to any
// task in the entire system (Section 4.4).
func (s *System) HighestPriority() int {
	best := 0
	for i, t := range s.Tasks {
		if i == 0 || t.Priority > best {
			best = t.Priority
		}
	}
	return best
}

// Utilization returns the total utilization of the task set.
func (s *System) Utilization() float64 {
	total := 0.0
	for _, t := range s.Tasks {
		total += t.Utilization()
	}
	return total
}

// ProcUtilization returns the utilization of the tasks bound to processor p.
func (s *System) ProcUtilization(p ProcID) float64 {
	total := 0.0
	for _, t := range s.Tasks {
		if t.Proc == p {
			total += t.Utilization()
		}
	}
	return total
}

// Hyperperiod returns the least common multiple of all task periods, the
// natural simulation horizon. It saturates at maxHyperperiod to keep
// adversarial inputs from overflowing.
func (s *System) Hyperperiod() int {
	const maxHyperperiod = 1 << 40
	l := 1
	for _, t := range s.Tasks {
		l = lcm(l, t.Period)
		if l > maxHyperperiod {
			return maxHyperperiod
		}
	}
	return l
}

// HasReleaseVariance reports whether any task's release sequence depends
// on seed-derived draws (see Task.HasReleaseVariance). Variance-free
// systems ignore ReleaseSeed entirely.
func (s *System) HasReleaseVariance() bool {
	for _, t := range s.Tasks {
		if t.HasReleaseVariance() {
			return true
		}
	}
	return false
}

// MaxOffset returns the largest release offset in the task set.
func (s *System) MaxOffset() int {
	max := 0
	for _, t := range s.Tasks {
		if t.Offset > max {
			max = t.Offset
		}
	}
	return max
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int {
	if a == 0 || b == 0 {
		return 0
	}
	return a / gcd(a, b) * b
}

// AssignRateMonotonic assigns distinct base priorities by the
// rate-monotonic rule of [6]: shorter period means higher priority. Ties on
// period are broken by task ID (lower ID wins) so the assignment is
// deterministic. Priorities are 1..n with n = highest.
func AssignRateMonotonic(s *System) { assignMonotonic(s, func(t *Task) int { return t.Period }) }

// AssignDeadlineMonotonic assigns distinct base priorities by relative
// deadline: shorter deadline means higher priority (optimal for static
// priorities when deadlines may be shorter than periods). Ties break by
// task ID. Priorities are 1..n with n = highest.
func AssignDeadlineMonotonic(s *System) { assignMonotonic(s, (*Task).RelativeDeadline) }

// assignMonotonic assigns priorities 1..n so that a smaller key means a
// higher priority, ties broken by task ID (lower ID wins).
func assignMonotonic(s *System, key func(*Task) int) {
	order := slices.Clone(s.Tasks)
	slices.SortFunc(order, func(a, b *Task) int { // largest key = lowest priority
		return cmp.Or(cmp.Compare(key(b), key(a)), cmp.Compare(b.ID, a.ID))
	})
	for i, t := range order {
		t.Priority = i + 1
	}
	s.validated = false
}
