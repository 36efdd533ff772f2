package analysis

import (
	"fmt"

	"mpcp/internal/ceiling"
	"mpcp/internal/task"
)

// HybridOptions configures the blocking analysis of the mixed protocol
// (the Section 6 variation implemented by internal/hybrid): each global
// semaphore is either handled in place under the shared-memory rules or
// remotely under the message-based rules.
type HybridOptions struct {
	// Remote lists the message-based semaphores; all other global
	// semaphores use the shared-memory rules.
	Remote map[task.SemID]bool
	// Assign maps remote semaphores to synchronization processors;
	// unset entries default to the lowest-numbered accessor.
	Assign map[task.SemID]task.ProcID
	// DeferredPenalty adds the suspension-induced extra preemption of
	// higher-priority local tasks, as in Options.
	DeferredPenalty bool
}

// HybridBounds computes per-task worst-case blocking under the mixed
// protocol by composing the per-semaphore factor contributions: critical
// sections on shared-memory semaphores contribute the MPCP factors
// (held-by-lower, remote preemption on the semaphore, gcs preemption on
// blocking processors, lower-priority local gcs boosts), while critical
// sections on remote semaphores contribute the DPCP factors (service
// queueing on the synchronization processor, agent preemption on the
// task's own processor). Local semaphores contribute factor 1 as always.
func HybridBounds(sys *task.System, opts HybridOptions) (map[task.ID]*Bound, error) {
	if !sys.Validated() {
		return nil, ErrNotValidated
	}
	if cs := sys.NestedGlobal(); cs != nil {
		return nil, fmt.Errorf("%w: task %d semaphore %d", ErrNestedGlobal, cs.Task, cs.Sem)
	}
	tbl := ceiling.Compute(sys, false)
	assign := dpcpAssign(sys, opts.Assign)

	isRemote := func(s task.SemID) bool { return opts.Remote[s] }

	// Remote gcs's grouped by synchronization processor.
	type remoteGcs struct {
		owner *task.Task
		cs    task.CriticalSection
	}
	bySync := make(map[task.ProcID][]remoteGcs)
	for _, t := range sys.Tasks {
		for _, cs := range sys.GlobalSections(t.ID) {
			if isRemote(cs.Sem) {
				bySync[assign[cs.Sem]] = append(bySync[assign[cs.Sem]], remoteGcs{owner: t, cs: cs})
			}
		}
	}

	out := make(map[task.ID]*Bound, len(sys.Tasks))
	for _, ti := range sys.Tasks {
		b := &Bound{Task: ti.ID}
		gcsAll := sys.GlobalSections(ti.ID)
		ng := len(gcsAll) // every global request can suspend, either mode

		var shmSecs, remSecs []task.CriticalSection
		shmShared := make(map[task.SemID]bool)
		for _, cs := range gcsAll {
			if isRemote(cs.Sem) {
				remSecs = append(remSecs, cs)
			} else {
				shmSecs = append(shmSecs, cs)
				shmShared[cs.Sem] = true
			}
		}

		// Factor 1: identical in both modes.
		maxLcs := 0
		for _, tk := range sys.TasksOn(ti.Proc) {
			if tk.Priority >= ti.Priority {
				continue
			}
			for _, cs := range sys.LocalSections(tk.ID) {
				if tbl.LocalCeil[cs.Sem] >= ti.Priority && cs.Duration > maxLcs {
					maxLcs = cs.Duration
				}
			}
		}
		b.LocalBlocking = (ng + 1) * maxLcs

		// Shared-memory contributions (MPCP factors 2-4 over shmSecs).
		for _, cs := range shmSecs {
			worst := 0
			for _, tk := range sys.Tasks {
				if tk.ID == ti.ID || tk.Priority >= ti.Priority {
					continue
				}
				for _, other := range sys.GlobalSections(tk.ID) {
					if other.Sem == cs.Sem && other.Duration > worst {
						worst = other.Duration
					}
				}
			}
			b.GlobalHeldByLower += worst
		}
		for _, tj := range sys.Tasks {
			if tj.Proc == ti.Proc || tj.Priority <= ti.Priority {
				continue
			}
			dur := 0
			for _, cs := range sys.GlobalSections(tj.ID) {
				if shmShared[cs.Sem] {
					dur += cs.Duration
				}
			}
			if dur > 0 {
				b.RemotePreemption += ceilDiv(ti.Period, tj.Period) * dur
			}
		}
		blockProcs := make(map[task.ProcID]int) // proc -> min blocker gcs prio
		for _, tk := range sys.Tasks {
			if tk.Proc == ti.Proc || tk.Priority >= ti.Priority {
				continue
			}
			for _, cs := range sys.GlobalSections(tk.ID) {
				if !shmShared[cs.Sem] || isRemote(cs.Sem) {
					continue
				}
				prio := tbl.GcsPrio[ceiling.Key{Task: tk.ID, Sem: cs.Sem}]
				if cur, ok := blockProcs[tk.Proc]; !ok || prio < cur {
					blockProcs[tk.Proc] = prio
				}
			}
		}
		for proc, minPrio := range blockProcs {
			for _, tl := range sys.TasksOn(proc) {
				dur := 0
				for _, cs := range sys.GlobalSections(tl.ID) {
					if isRemote(cs.Sem) {
						continue
					}
					if tbl.GcsPrio[ceiling.Key{Task: tl.ID, Sem: cs.Sem}] > minPrio {
						dur += cs.Duration
					}
				}
				if dur > 0 {
					b.BlockingProcGcs += ceilDiv(ti.Period, tl.Period) * dur
				}
			}
		}

		// Remote contributions (DPCP factors over remSecs).
		syncProcs := make(map[task.ProcID]bool)
		for _, cs := range remSecs {
			syncProcs[assign[cs.Sem]] = true
			sp := assign[cs.Sem]
			worst := 0
			for _, rg := range bySync[sp] {
				if rg.owner.ID == ti.ID || rg.owner.Priority >= ti.Priority {
					continue
				}
				if rg.cs.Duration > worst {
					worst = rg.cs.Duration
				}
			}
			b.GlobalHeldByLower += worst
		}
		for sp := range syncProcs {
			perOwner := make(map[task.ID]int)
			for _, rg := range bySync[sp] {
				if rg.owner.ID == ti.ID || rg.owner.Priority <= ti.Priority {
					continue
				}
				perOwner[rg.owner.ID] += rg.cs.Duration
			}
			for owner, dur := range perOwner {
				tj := sys.TaskByID(owner)
				b.RemotePreemption += ceilDiv(ti.Period, tj.Period) * dur
			}
		}

		// Factor 5 composition: shared-memory gcs boosts of lower local
		// tasks, plus remote agents executing on our own processor.
		for _, tk := range sys.TasksOn(ti.Proc) {
			if tk.Priority >= ti.Priority {
				continue
			}
			shmCount, maxGcs := 0, 0
			for _, cs := range sys.GlobalSections(tk.ID) {
				if isRemote(cs.Sem) {
					continue
				}
				shmCount++
				if cs.Duration > maxGcs {
					maxGcs = cs.Duration
				}
			}
			if shmCount == 0 {
				continue
			}
			count := ng + 1
			if 2*shmCount < count {
				count = 2 * shmCount
			}
			b.LowerLocalGcs += count * maxGcs
		}
		perOwner := make(map[task.ID]int)
		for _, rg := range bySync[ti.Proc] {
			if rg.owner.ID == ti.ID {
				continue
			}
			perOwner[rg.owner.ID] += rg.cs.Duration
		}
		for owner, dur := range perOwner {
			tk := sys.TaskByID(owner)
			b.LowerLocalGcs += ceilDiv(ti.Period, tk.Period) * dur
		}

		if opts.DeferredPenalty {
			for _, tj := range sys.TasksOn(ti.Proc) {
				if tj.Priority <= ti.Priority {
					continue
				}
				if len(sys.GlobalSections(tj.ID)) > 0 {
					b.DeferredPenalty += tj.WCET()
				}
			}
		}

		b.Total = b.LocalBlocking + b.GlobalHeldByLower + b.RemotePreemption +
			b.BlockingProcGcs + b.LowerLocalGcs + b.DeferredPenalty
		out[ti.ID] = b
	}
	return out, nil
}
