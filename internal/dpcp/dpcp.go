// Package dpcp implements the message-based multiprocessor
// synchronization protocol of [8] (the paper's baseline, later called the
// distributed priority ceiling protocol). Every global semaphore is
// assigned to one synchronization processor; a job that needs a global
// critical section sends a request there and suspends, and the gcs
// executes on the synchronization processor as an agent running at the
// global priority ceiling of its semaphore. Local semaphores use the
// uniprocessor priority ceiling protocol, as in the shared-memory
// protocol.
package dpcp

import (
	"fmt"

	"mpcp/internal/pcp"
	"mpcp/internal/pqueue"
	"mpcp/internal/sim"
	"mpcp/internal/task"
)

// Options configures the protocol.
type Options struct {
	// Assign maps each global semaphore to its synchronization processor.
	// Semaphores not present default to the lowest-numbered processor
	// that accesses them.
	Assign map[task.SemID]task.ProcID
}

// Protocol is the message-based baseline. Build with New.
type Protocol struct {
	opts Options

	assign map[task.SemID]task.ProcID
	locals map[task.ProcID]*pcp.Local
	gsems  map[task.SemID]*gsem
	csAt   map[csKey]task.CriticalSection
}

type csKey struct {
	task  task.ID
	start int
}

type gsem struct {
	ceil    int // global priority ceiling
	busy    bool
	waiters pqueue.Queue[*sim.Job]
}

var _ sim.Protocol = (*Protocol)(nil)

// New returns the message-based protocol with the given options.
func New(opts Options) *Protocol { return &Protocol{opts: opts} }

// Name implements sim.Protocol.
func (p *Protocol) Name() string { return "dpcp" }

// Init implements sim.Protocol.
func (p *Protocol) Init(e *sim.Engine) error {
	sys := e.Sys()

	p.assign = make(map[task.SemID]task.ProcID)
	p.gsems = make(map[task.SemID]*gsem)
	p.csAt = make(map[csKey]task.CriticalSection)

	x := sys.Index()
	for k, sem := range sys.Sems {
		if !sem.Global {
			continue
		}
		p.gsems[sem.ID] = &gsem{ceil: x.Ceiling(k)}
		if proc, ok := p.opts.Assign[sem.ID]; ok {
			if int(proc) >= sys.NumProcs || proc < 0 {
				return fmt.Errorf("dpcp: semaphore %d assigned to invalid processor %d", sem.ID, proc)
			}
			p.assign[sem.ID] = proc
		} else {
			p.assign[sem.ID] = x.ProcID(x.Accessors(k)[0])
		}
	}

	if cs := sys.NestedGlobal(); cs != nil {
		return fmt.Errorf("dpcp: task %d has a nested global critical section on semaphore %d", cs.Task, cs.Sem)
	}
	for _, t := range sys.Tasks {
		for _, cs := range sys.GlobalSections(t.ID) {
			p.csAt[csKey{task: t.ID, start: cs.StartSeg}] = cs
		}
	}

	p.locals = make(map[task.ProcID]*pcp.Local, sys.NumProcs)
	for i := 0; i < sys.NumProcs; i++ {
		proc := task.ProcID(i)
		p.locals[proc] = pcp.NewLocal(sys, proc, nil)
	}
	return nil
}

// SyncProc returns the synchronization processor of global semaphore s.
func (p *Protocol) SyncProc(s task.SemID) task.ProcID { return p.assign[s] }

// GlobalCeiling returns the global priority ceiling of semaphore s.
func (p *Protocol) GlobalCeiling(s task.SemID) int {
	if g, ok := p.gsems[s]; ok {
		return g.ceil
	}
	return 0
}

// OnRelease implements sim.Protocol.
func (p *Protocol) OnRelease(e *sim.Engine, j *sim.Job) {
	e.SetEffPrio(j, j.BasePrio)
	e.MakeReady(j)
}

// TryLock implements sim.Protocol.
func (p *Protocol) TryLock(e *sim.Engine, j *sim.Job, s task.SemID) bool {
	g, isGlobal := p.gsems[s]
	if !isGlobal {
		return p.locals[j.Proc].TryLock(e, j, s)
	}
	cs, ok := p.csAt[csKey{task: j.Task.ID, start: j.PC}]
	if !ok {
		// Should be impossible on a validated system.
		e.SuspendGlobal(j, s)
		return false
	}
	e.SuspendGlobal(j, s)
	if g.busy {
		g.waiters.Push(j, j.BasePrio)
		return false
	}
	g.busy = true
	p.startAgent(e, j, cs)
	return false
}

// startAgent launches the gcs of parent on the synchronization processor
// at the global priority ceiling of its semaphore, per [8].
func (p *Protocol) startAgent(e *sim.Engine, parent *sim.Job, cs task.CriticalSection) {
	interior := parent.Body[cs.StartSeg+1 : cs.EndSeg]
	prio := p.gsems[cs.Sem].ceil
	agent := e.SpawnAgent(parent, interior, p.assign[cs.Sem], prio, func(agent *sim.Job) {
		p.agentDone(e, agent, cs)
	})
	parent.ActiveAgent = agent
	e.Grant(parent, cs.Sem, prio)
}

// agentDone resumes the parent past its gcs and starts the next queued
// request, if any.
func (p *Protocol) agentDone(e *sim.Engine, agent *sim.Job, cs task.CriticalSection) {
	parent := agent.Parent
	parent.ActiveAgent = nil
	e.JumpTo(parent, cs.EndSeg+1)
	e.SetEffPrio(parent, parent.BasePrio)
	e.MakeReady(parent)
	p.locals[parent.Proc].Recompute(e)

	g := p.gsems[cs.Sem]
	next, ok := g.waiters.Pop()
	if !ok {
		g.busy = false
		return
	}
	nextCS, found := p.csAt[csKey{task: next.Task.ID, start: next.PC}]
	if !found {
		g.busy = false
		return
	}
	p.startAgent(e, next, nextCS)
}

// Unlock implements sim.Protocol. Global unlock segments are never
// executed by the job itself (the agent runs only the interior), so this
// only ever sees local semaphores.
func (p *Protocol) Unlock(e *sim.Engine, j *sim.Job, s task.SemID) {
	if _, isGlobal := p.gsems[s]; isGlobal {
		//rtlint:allow protocontract global sections run remotely; the agent's completion releases the semaphore in agentDone
		return
	}
	p.locals[j.Proc].Unlock(e, j, s)
}

// OnFinish implements sim.Protocol.
func (p *Protocol) OnFinish(e *sim.Engine, j *sim.Job) {
	if j.IsAgent() {
		return
	}
	p.locals[j.Proc].DropJob(j)
	p.locals[j.Proc].Recompute(e)
}
