// Package proto implements the two baseline synchronization disciplines
// the paper argues against: raw binary semaphores with no priority
// management (Section 2.1 / Example 1 — unbounded priority inversion) and
// basic priority inheritance applied across processors (Example 2 —
// inheritance alone does not bound remote blocking). Both treat local and
// global semaphores uniformly.
package proto

import (
	"slices"

	"mpcp/internal/pqueue"
	"mpcp/internal/sim"
	"mpcp/internal/task"
)

// QueueOrder selects how waiters are ordered on a semaphore queue.
type QueueOrder int

// Queue orders. PriorityOrder wakes the highest-priority waiter first;
// FIFOOrder wakes in arrival order (the common semaphore default the paper
// implicitly criticizes).
const (
	PriorityOrder QueueOrder = iota + 1
	FIFOOrder
)

type semState struct {
	holder  *sim.Job
	waiters pqueue.Queue[*sim.Job]
}

// None is the no-protocol baseline: P() suspends the caller when the
// semaphore is held, V() wakes one waiter, and nobody's priority ever
// changes. Jobs therefore suffer uncontrolled priority inversion.
type None struct {
	Order QueueOrder

	sems map[task.SemID]*semState
}

var _ sim.Protocol = (*None)(nil)

// NewNone returns the baseline with the given queue order.
func NewNone(order QueueOrder) *None {
	if order == 0 {
		order = FIFOOrder
	}
	return &None{Order: order}
}

// Name implements sim.Protocol.
func (p *None) Name() string {
	if p.Order == PriorityOrder {
		return "none(prio-queue)"
	}
	return "none(fifo)"
}

// Init implements sim.Protocol.
func (p *None) Init(e *sim.Engine) error {
	p.sems = make(map[task.SemID]*semState, len(e.Sys().Sems))
	for _, s := range e.Sys().Sems {
		p.sems[s.ID] = &semState{}
	}
	return nil
}

// OnRelease implements sim.Protocol.
func (p *None) OnRelease(e *sim.Engine, j *sim.Job) {
	e.SetEffPrio(j, j.BasePrio)
	e.MakeReady(j)
}

// TryLock implements sim.Protocol.
func (p *None) TryLock(e *sim.Engine, j *sim.Job, s task.SemID) bool {
	st := p.sems[s]
	if st.holder == nil {
		st.holder = j
		e.CompleteLock(j, s)
		return true
	}
	key := 0 // FIFO: all equal, queue breaks ties by arrival
	if p.Order == PriorityOrder {
		key = j.BasePrio
	}
	st.waiters.Push(j, key)
	e.SuspendGlobal(j, s)
	return false
}

// Unlock implements sim.Protocol.
func (p *None) Unlock(e *sim.Engine, j *sim.Job, s task.SemID) {
	st := p.sems[s]
	st.holder = nil
	if next, ok := st.waiters.Pop(); ok {
		st.holder = next
		e.CompleteLock(next, s)
		e.Grant(next, s, next.BasePrio)
		e.MakeReady(next)
	}
}

// OnFinish implements sim.Protocol.
func (p *None) OnFinish(e *sim.Engine, j *sim.Job) {}

// Inherit is the basic priority inheritance protocol of [10] applied
// naively to every semaphore, across processor boundaries: the holder of a
// semaphore inherits, transitively, the highest effective priority of the
// jobs waiting on it. Example 2 shows this is not enough on
// multiprocessors: a job blocked on a remote semaphore still waits for
// arbitrary non-critical execution of higher-priority remote jobs.
type Inherit struct {
	sems map[task.SemID]*semState
	// waiting lists every queued waiter with the semaphore it waits for,
	// in the order they queued, so inheritance can be recomputed
	// transitively. It holds exactly the jobs in the semaphore queues.
	waiting []waiter

	// recompute's working set, owned and reused across calls: jobs holds
	// the active jobs followed by any other job an edge names, eff their
	// effective priorities, and edges each (waiter, holder) pair as
	// indices into both.
	jobs  []*sim.Job
	eff   []int
	edges [][2]int
}

type waiter struct {
	job *sim.Job
	sem task.SemID
}

var _ sim.Protocol = (*Inherit)(nil)

// NewInherit returns the priority inheritance baseline.
func NewInherit() *Inherit { return &Inherit{} }

// Name implements sim.Protocol.
func (p *Inherit) Name() string { return "inherit" }

// Init implements sim.Protocol.
func (p *Inherit) Init(e *sim.Engine) error {
	p.sems = make(map[task.SemID]*semState, len(e.Sys().Sems))
	for _, s := range e.Sys().Sems {
		p.sems[s.ID] = &semState{}
	}
	p.waiting = nil
	n := len(e.Sys().Tasks) // one active job per task in the common case
	p.jobs, p.eff = make([]*sim.Job, 0, n), make([]int, 0, n)
	return nil
}

// OnRelease implements sim.Protocol.
func (p *Inherit) OnRelease(e *sim.Engine, j *sim.Job) {
	e.SetEffPrio(j, j.BasePrio)
	e.MakeReady(j)
}

// TryLock implements sim.Protocol.
func (p *Inherit) TryLock(e *sim.Engine, j *sim.Job, s task.SemID) bool {
	st := p.sems[s]
	if st.holder == nil {
		st.holder = j
		e.CompleteLock(j, s)
		return true
	}
	st.waiters.Push(j, j.BasePrio)
	p.waiting = append(p.waiting, waiter{job: j, sem: s})
	e.SuspendGlobal(j, s)
	p.recompute(e)
	return false
}

// Unlock implements sim.Protocol.
func (p *Inherit) Unlock(e *sim.Engine, j *sim.Job, s task.SemID) {
	st := p.sems[s]
	st.holder = nil
	if next, ok := st.waiters.Pop(); ok {
		p.dropWaiter(next)
		st.holder = next
		e.CompleteLock(next, s)
		e.Grant(next, s, next.BasePrio)
		e.MakeReady(next)
	}
	p.recompute(e)
}

// OnFinish implements sim.Protocol. The engine also routes
// overload-aborted jobs here, so the waiting record must be dropped: an
// aborted waiter never reaches the Unlock that would have cleared it.
func (p *Inherit) OnFinish(e *sim.Engine, j *sim.Job) {
	p.dropWaiter(j)
	p.recompute(e)
}

// dropWaiter removes j's waiting record, if any.
func (p *Inherit) dropWaiter(j *sim.Job) {
	for i := range p.waiting {
		if p.waiting[i].job == j {
			p.waiting = slices.Delete(p.waiting, i, i+1)
			return
		}
	}
}

// recompute reestablishes the transitive inheritance fixpoint:
// eff(j) = max(base(j), eff of every job waiting on a semaphore j holds).
// The fixpoint is the least one above the base priorities, so the order
// edges are relaxed in does not change it.
func (p *Inherit) recompute(e *sim.Engine) {
	p.jobs, p.eff, p.edges = p.jobs[:0], p.eff[:0], p.edges[:0]
	for _, j := range e.ActiveJobs() {
		p.jobs = append(p.jobs, j)
		p.eff = append(p.eff, j.BasePrio)
	}
	active := len(p.jobs)
	for _, w := range p.waiting {
		if h := p.sems[w.sem].holder; h != nil {
			p.edges = append(p.edges, [2]int{p.slot(w.job), p.slot(h)})
		}
	}
	for changed := true; changed; {
		changed = false
		for _, ix := range p.edges {
			if p.eff[ix[0]] > p.eff[ix[1]] {
				p.eff[ix[1]] = p.eff[ix[0]]
				changed = true
			}
		}
	}
	for i, j := range p.jobs[:active] {
		e.SetEffPrio(j, p.eff[i])
	}
}

// slot returns j's index in the working set, adding a scratch slot at
// priority 0 for a job outside the active set: it relays inheritance but
// is never assigned a priority.
func (p *Inherit) slot(j *sim.Job) int {
	for i, k := range p.jobs {
		if k == j {
			return i
		}
	}
	p.jobs = append(p.jobs, j)
	p.eff = append(p.eff, 0)
	return len(p.jobs) - 1
}
