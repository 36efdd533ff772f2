// Package hybrid implements the protocol variation the paper's
// conclusion proposes: "the shared memory and message-based protocols can
// be mixed to reduce critical blocking factors and/or support nested
// critical sections." Each global semaphore is individually configured to
// be handled either in place (shared-memory MPCP rules: priority-queued
// atomic acquisition, gcs at P_G + P_h on the requester's processor) or
// remotely (message-based DPCP rules: the gcs executes as an agent on a
// synchronization processor at the semaphore's global ceiling). Local
// semaphores use the uniprocessor priority ceiling protocol as always.
package hybrid

import (
	"fmt"

	"mpcp/internal/ceiling"
	"mpcp/internal/pcp"
	"mpcp/internal/pqueue"
	"mpcp/internal/sim"
	"mpcp/internal/task"
)

// Options configures which global semaphores are remote and where their
// agents run.
type Options struct {
	// Remote lists the global semaphores handled message-based. All other
	// global semaphores use the shared-memory rules.
	Remote map[task.SemID]bool

	// Assign maps remote semaphores to synchronization processors;
	// unset entries default to the lowest-numbered accessor.
	Assign map[task.SemID]task.ProcID
}

// Protocol is the mixed shared-memory / message-based protocol.
type Protocol struct {
	opts Options

	tbl    *ceiling.Table
	locals map[task.ProcID]*pcp.Local

	shm    map[task.SemID]*shmSem
	remote map[task.SemID]*remoteSem
	csAt   map[csKey]task.CriticalSection

	prioStack map[*sim.Job][]int
}

type csKey struct {
	task  task.ID
	start int
}

type shmSem struct {
	holder  *sim.Job
	waiters pqueue.Queue[*sim.Job]
}

type remoteSem struct {
	proc    task.ProcID
	busy    bool
	waiters pqueue.Queue[*sim.Job]
}

var _ sim.Protocol = (*Protocol)(nil)

// New returns the hybrid protocol.
func New(opts Options) *Protocol { return &Protocol{opts: opts} }

// Name implements sim.Protocol.
func (p *Protocol) Name() string { return "hybrid" }

// Init implements sim.Protocol.
func (p *Protocol) Init(e *sim.Engine) error {
	sys := e.Sys()
	p.tbl = ceiling.Compute(sys, false)
	p.shm = make(map[task.SemID]*shmSem)
	p.remote = make(map[task.SemID]*remoteSem)
	p.csAt = make(map[csKey]task.CriticalSection)
	p.prioStack = make(map[*sim.Job][]int)

	for _, sem := range sys.Sems {
		if !sem.Global || len(sys.TasksUsing(sem.ID)) == 0 {
			continue
		}
		if !p.opts.Remote[sem.ID] {
			p.shm[sem.ID] = &shmSem{}
			continue
		}
		proc, ok := p.opts.Assign[sem.ID]
		if !ok {
			proc = sys.AccessorProcs(sem.ID)[0]
		}
		if proc < 0 || int(proc) >= sys.NumProcs {
			return fmt.Errorf("hybrid: semaphore %d assigned to invalid processor %d", sem.ID, proc)
		}
		p.remote[sem.ID] = &remoteSem{proc: proc}
	}

	if cs := sys.NestedGlobal(); cs != nil {
		return fmt.Errorf("hybrid: task %d has a nested global critical section on semaphore %d", cs.Task, cs.Sem)
	}
	for _, t := range sys.Tasks {
		for _, cs := range sys.GlobalSections(t.ID) {
			p.csAt[csKey{task: t.ID, start: cs.StartSeg}] = cs
		}
	}

	p.locals = make(map[task.ProcID]*pcp.Local, sys.NumProcs)
	for i := 0; i < sys.NumProcs; i++ {
		proc := task.ProcID(i)
		p.locals[proc] = pcp.NewLocal(sys, proc, p.setLocalPrio)
	}
	return nil
}

func (p *Protocol) setLocalPrio(e *sim.Engine, j *sim.Job, prio int) {
	if j.GCS > 0 {
		return
	}
	e.SetEffPrio(j, prio)
}

// Ceilings exposes the priority structure computed at Init.
func (p *Protocol) Ceilings() *ceiling.Table { return p.tbl }

// IsRemote reports how semaphore s is handled.
func (p *Protocol) IsRemote(s task.SemID) bool {
	_, ok := p.remote[s]
	return ok
}

// OnRelease implements sim.Protocol.
func (p *Protocol) OnRelease(e *sim.Engine, j *sim.Job) {
	e.SetEffPrio(j, j.BasePrio)
	e.MakeReady(j)
}

// TryLock implements sim.Protocol.
func (p *Protocol) TryLock(e *sim.Engine, j *sim.Job, s task.SemID) bool {
	if g, ok := p.shm[s]; ok {
		return p.tryLockShm(e, j, s, g)
	}
	if r, ok := p.remote[s]; ok {
		return p.tryLockRemote(e, j, s, r)
	}
	return p.locals[j.Proc].TryLock(e, j, s)
}

func (p *Protocol) tryLockShm(e *sim.Engine, j *sim.Job, s task.SemID, g *shmSem) bool {
	if g.holder == nil {
		p.enterGcs(e, j, s, j.EffPrio)
		g.holder = j
		return true
	}
	g.waiters.Push(j, j.BasePrio)
	p.prioStack[j] = append(p.prioStack[j], j.EffPrio)
	e.SuspendGlobal(j, s)
	return false
}

func (p *Protocol) enterGcs(e *sim.Engine, j *sim.Job, s task.SemID, prev int) {
	p.prioStack[j] = append(p.prioStack[j], prev)
	e.CompleteLock(j, s)
	prio := p.tbl.GcsPrio[ceiling.Key{Task: j.Task.ID, Sem: s}]
	if prio > j.EffPrio {
		e.SetEffPrio(j, prio)
	}
}

func (p *Protocol) tryLockRemote(e *sim.Engine, j *sim.Job, s task.SemID, r *remoteSem) bool {
	cs, ok := p.csAt[csKey{task: j.Task.ID, start: j.PC}]
	if !ok {
		e.SuspendGlobal(j, s)
		return false
	}
	e.SuspendGlobal(j, s)
	if r.busy {
		r.waiters.Push(j, j.BasePrio)
		return false
	}
	r.busy = true
	p.startAgent(e, j, cs, r)
	return false
}

func (p *Protocol) startAgent(e *sim.Engine, parent *sim.Job, cs task.CriticalSection, r *remoteSem) {
	interior := parent.Body[cs.StartSeg+1 : cs.EndSeg]
	prio := p.tbl.GlobalCeil[cs.Sem]
	agent := e.SpawnAgent(parent, interior, r.proc, prio, func(agent *sim.Job) {
		p.agentDone(e, agent, cs, r)
	})
	parent.ActiveAgent = agent
	e.Grant(parent, cs.Sem, prio)
}

func (p *Protocol) agentDone(e *sim.Engine, agent *sim.Job, cs task.CriticalSection, r *remoteSem) {
	parent := agent.Parent
	parent.ActiveAgent = nil
	e.JumpTo(parent, cs.EndSeg+1)
	e.SetEffPrio(parent, parent.BasePrio)
	e.MakeReady(parent)
	p.locals[parent.Proc].Recompute(e)

	next, ok := r.waiters.Pop()
	if !ok {
		r.busy = false
		return
	}
	nextCS, found := p.csAt[csKey{task: next.Task.ID, start: next.PC}]
	if !found {
		r.busy = false
		return
	}
	p.startAgent(e, next, nextCS, r)
}

// Unlock implements sim.Protocol.
func (p *Protocol) Unlock(e *sim.Engine, j *sim.Job, s task.SemID) {
	g, isShm := p.shm[s]
	if !isShm {
		if _, isRemote := p.remote[s]; isRemote {
			//rtlint:allow protocontract remote sections release through the agent's completion in agentDone
			return
		}
		p.locals[j.Proc].Unlock(e, j, s)
		return
	}

	if st := p.prioStack[j]; len(st) > 0 {
		prev := st[len(st)-1]
		p.prioStack[j] = st[:len(st)-1]
		if len(p.prioStack[j]) == 0 {
			delete(p.prioStack, j)
		}
		e.SetEffPrio(j, prev)
	} else {
		e.SetEffPrio(j, j.BasePrio)
	}
	p.locals[j.Proc].Recompute(e)

	next, ok := g.waiters.Pop()
	if !ok {
		g.holder = nil
		return
	}
	g.holder = next
	prev := next.BasePrio
	if st := p.prioStack[next]; len(st) > 0 {
		prev = st[len(st)-1]
		p.prioStack[next] = st[:len(st)-1]
	}
	p.enterGcs(e, next, s, prev)
	e.Grant(next, s, next.EffPrio)
	e.MakeReady(next)
}

// OnFinish implements sim.Protocol.
func (p *Protocol) OnFinish(e *sim.Engine, j *sim.Job) {
	delete(p.prioStack, j)
	p.locals[j.Proc].DropJob(j)
	p.locals[j.Proc].Recompute(e)
}
