// Package ceiling presents the priority structure of Section 4 as a
// map-based table: P_H (the highest assigned priority in the system), P_G
// (the base priority ceiling for global semaphores, strictly greater than
// P_H), the local and global priority ceilings of every semaphore, and
// the fixed execution priority of every global critical section.
//
// The values themselves are compiled once, by task.System.Validate, into
// the position-addressed task.Index (PH, PG, Ceiling, GcsPrio, and the
// Prio of each task.Sec). Analyses and protocols read them there; Compute
// only copies them into a Table for callers that want ID-keyed maps (the
// public Ceilings facade, rtsched, the experiments, and the lock-time
// lookups of internal/core and internal/hybrid). The worked examples of
// Tables 4-1 and 4-2 therefore check the same single source of truth.
package ceiling

import "mpcp/internal/task"

// Key identifies the gcs of one task on one semaphore.
type Key struct {
	Task task.ID
	Sem  task.SemID
}

// Table is the computed priority structure of a validated system.
type Table struct {
	// PH is the highest priority assigned to any task in the system.
	PH int
	// PG is the base priority ceiling of global semaphores: a fixed
	// priority greater than PH (Section 4.4 uses P_G = P_H + offset; we
	// use offset 1). The global ceiling of semaphore S is PG + P_S where
	// P_S is the highest priority of the tasks that access S.
	PG int

	// LocalCeil maps each local semaphore to its priority ceiling: the
	// priority of the highest-priority task that may lock it.
	LocalCeil map[task.SemID]int

	// GlobalCeil maps each global semaphore to its global priority
	// ceiling PG + P_S.
	GlobalCeil map[task.SemID]int

	// GcsPrio maps (task, global semaphore) to the fixed execution
	// priority of that task's gcs: PG + P_h, with P_h the highest
	// priority among tasks on *other* processors that may lock the
	// semaphore (Section 4.4). When a semaphore has no remote lockers of
	// higher priority this is still above PH, satisfying Theorem 2.
	GcsPrio map[Key]int
}

// Compute fills the table of a validated system from its compiled index.
// When atCeiling is true, every gcs executes at the full global ceiling of
// its semaphore, as the message-based protocol of [8] prescribes and as
// the paper discusses as the more pessimistic assignment.
func Compute(sys *task.System, atCeiling bool) *Table {
	x := sys.Index()
	t := &Table{
		PH:         x.PH(),
		PG:         x.PG(),
		LocalCeil:  make(map[task.SemID]int),
		GlobalCeil: make(map[task.SemID]int),
		GcsPrio:    make(map[Key]int),
	}
	for k, sem := range sys.Sems {
		users := x.Users(k)
		if len(users) == 0 {
			continue
		}
		if !sem.Global {
			t.LocalCeil[sem.ID] = x.Ceiling(k)
			continue
		}
		t.GlobalCeil[sem.ID] = x.Ceiling(k)
		for _, u := range users {
			prio := x.Ceiling(k)
			if !atCeiling {
				prio = x.GcsPrio(k, u.Proc)
			}
			t.GcsPrio[Key{Task: u.ID, Sem: sem.ID}] = prio
		}
	}
	return t
}
