package analysis

import (
	"fmt"
	"math"
	"slices"

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
	x := sys.Index()
	remote := make([]bool, len(sys.Sems))
	for k, sem := range sys.Sems {
		remote[k] = opts.Remote[sem.ID]
	}
	isShm := func(cs task.Sec) bool { return !remote[cs.Sem] }
	shmSem := func(cs task.Sec) int {
		if remote[cs.Sem] {
			return -1
		}
		return cs.Sem
	}
	onSem := GcsBySem(sys)
	onSync, group, syncProcs := syncGroups(sys, opts.Assign, func(k int) bool { return remote[k] })
	groupOf := func(cs task.Sec) int { return group[cs.Sem] }
	period := func(w int, tj *task.Task) int { return ceilDiv(w, tj.Period) }
	bs := make([]Bound, len(sys.Tasks))
	shm := newRemoteScratch(sys)
	var shmShared, groups []int

	for i, ti := range sys.Tasks {
		b := &bs[i]
		gcsAll := x.Global(i)
		ng, qi := len(gcsAll), x.Proc(i) // every global request can suspend, either mode
		shmShared, groups = distinct(shmShared, gcsAll, shmSem), distinct(groups, gcsAll, groupOf)

		// Factor 1: identical in both modes.
		b.LocalBlocking = (ng + 1) * ArrivalBlocking(sys, i)

		// Factor 2: a shared-memory request waits behind the semaphore's
		// longest lower-priority gcs, a remote one behind the longest
		// lower-priority gcs served on its synchronization processor.
		for _, cs := range gcsAll {
			refs := onSem[cs.Sem]
			if remote[cs.Sem] {
				refs = onSync[groupOf(cs)]
			}
			b.GlobalHeldByLower += heldByLower(sys, refs, i, ti.Priority)
		}

		// Shared-memory contributions (MPCP factors 3-4 over the
		// shared-memory sections), then the remote ones (DPCP factor 3
		// over the remote sections).
		b.RemotePreemption, b.BlockingProcGcs = shm.factors(onSem, shmShared, i, gcsPrioOf, isShm, period)
		for _, g := range groups {
			b.RemotePreemption += demand(sys, onSync[g], i, ti.Priority, period)
		}

		// Factor 5 composition: shared-memory gcs boosts of lower local
		// tasks, plus remote agents executing on our own processor.
		for _, k := range x.OnProc(qi) {
			if sys.Tasks[k].Priority >= ti.Priority {
				continue
			}
			shmCount, maxGcs := 0, 0
			for _, cs := range x.Global(k) {
				if isShm(cs) {
					shmCount++
					maxGcs = max(maxGcs, cs.Dur)
				}
			}
			b.LowerLocalGcs += min(ng+1, 2*shmCount) * maxGcs
		}
		if g := slices.Index(syncProcs, ti.Proc); g >= 0 {
			b.LowerLocalGcs += demand(sys, onSync[g], i, math.MinInt, period)
		}

		if opts.DeferredPenalty {
			b.DeferredPenalty = deferredPenalty(sys, i)
		}
	}
	return Keyed(sys, bs), nil
}
