package fmlp

import (
	"fmt"
	"slices"

	"mpcp/internal/analysis"
	"mpcp/internal/task"
)

// Bounds computes the per-task worst-case blocking decomposition for
// FMLP+ with the given short/long cutoff, mapped onto the Section 5.1
// factor slots of analysis.Bound:
//
//   - LocalBlocking (factor 1): one PCP local critical section per
//     suspension window — a job with n long requests has n+1 windows.
//   - GlobalHeldByLower (factor 2 slot): the FIFO suspension wait on
//     long resources. Each conflicting request by another task charges
//     its critical section plus a grant-delay term: a freshly granted
//     holder can sit behind the boosted sections already in progress
//     on its own processor before it starts executing.
//   - RemotePreemption (factor 3 slot): the job's own spin time on
//     short resources — one critical section (plus grant delay) per
//     other processor per request, as under MSRP.
//   - BlockingProcGcs (factor 4 slot): spin cycles of higher-priority
//     local releases, processor demand above the WCET the
//     response-time iteration charges.
//   - LowerLocalGcs (factor 5 slot): boosted execution (spin + gcs) of
//     lower-priority local jobs displacing this task, charged with the
//     standard interference bound.
//   - DeferredPenalty: with Options.DeferredPenalty semantics (one
//     extra WCET per higher-priority local task that suspends on long
//     resources), matching the MPCP analysis convention.
//
// The grant-delay term sums, per processor, the worst boosted span of
// every other global semaphore accessed from it — each job has at most
// one outstanding non-nested global request, so distinct predecessors
// at the boost level hold distinct semaphores. The decomposition is
// deliberately conservative; the bound-soundness conformance oracle
// validates it end to end against simulated worst cases. Every term is
// monotone in the minimum interarrival times.
func Bounds(sys *task.System, shortMax int, deferredPenalty bool) (map[task.ID]*analysis.Bound, error) {
	if !sys.Validated() {
		return nil, analysis.ErrNotValidated
	}
	if cs := sys.NestedGlobal(); cs != nil {
		return nil, fmt.Errorf("%w: task %d semaphore %d", analysis.ErrNestedGlobal, cs.Task, cs.Sem)
	}
	if shortMax == 0 {
		shortMax = DefaultShortMax
	}
	x := sys.Index()
	longest := analysis.LongestGcs(sys)
	short := shortSems(sys, longest, shortMax)
	isLong := func(cs task.Sec) bool { return !short[cs.Sem] }

	// rawSpin: busy-wait for one short request on semaphore k from
	// processor position q, not counting grant delays — one critical
	// section per other processor.
	rawSpin := func(q, k int) int {
		total := 0
		for a, p := range x.Accessors(k) {
			if p != q {
				total += longest[k][a]
			}
		}
		return total
	}
	// npSpan: the longest stretch q can execute at the boost level on
	// behalf of semaphore k — spin plus critical section for short
	// resources, the critical section for long ones.
	npSpan := func(q, k int) int {
		a := slices.Index(x.Accessors(k), q)
		if a < 0 || longest[k][a] == 0 {
			return 0
		}
		if short[k] {
			return rawSpin(q, k) + longest[k][a]
		}
		return longest[k][a]
	}
	// grantDelay: boosted work already in progress on q that a grant of
	// k to a job on q can queue behind — at most one span per other
	// global semaphore accessed from q.
	spans := make([]int, x.Procs())
	for k := range sys.Sems {
		for _, q := range x.Accessors(k) {
			spans[q] += npSpan(q, k)
		}
	}
	grantDelay := func(q, k int) int { return spans[q] - npSpan(q, k) }
	// spin[i] and boosted[i]: short-resource spin, and spin plus
	// critical-section ticks at the boost level, of one job of task i.
	spin, boosted := make([]int, len(sys.Tasks)), make([]int, len(sys.Tasks))
	for i := range sys.Tasks {
		for _, cs := range x.Global(i) {
			if short[cs.Sem] {
				spin[i] += rawSpin(x.Proc(i), cs.Sem)
			}
			boosted[i] += cs.Dur
		}
		boosted[i] += spin[i]
	}

	onSem := analysis.GcsBySem(sys)

	bs := make([]analysis.Bound, len(sys.Tasks))
	for i, ti := range sys.Tasks {
		b := &bs[i]
		gcsI := x.Global(i)
		nLong := 0
		for _, cs := range gcsI {
			if isLong(cs) {
				nLong++
			}
		}

		// Factor 1: one PCP local section per suspension window.
		b.LocalBlocking = (nLong + 1) * analysis.ArrivalBlocking(sys, i)

		for _, cs := range gcsI {
			if short[cs.Sem] {
				// Factor 3 slot: FIFO spin, one section plus grant
				// delay per other processor.
				for a, q := range x.Accessors(cs.Sem) {
					if q != x.Proc(i) && longest[cs.Sem][a] != 0 {
						b.RemotePreemption += longest[cs.Sem][a] + grantDelay(q, cs.Sem)
					}
				}
				continue
			}
			// Factor 2 slot: FIFO suspension wait — every conflicting
			// request that can arrive within the period precedes ours
			// in the worst case: each other task's longest section on
			// the semaphore (its sections there are adjacent in refs).
			refs := onSem[cs.Sem]
			for n := 0; n < len(refs); {
				j, dur := refs[n].Task, 0
				for ; n < len(refs) && refs[n].Task == j; n++ {
					dur = max(dur, refs[n].Dur)
				}
				if j != i && dur > 0 {
					b.GlobalHeldByLower += analysis.Interferes(ti.Period, sys.Tasks[j]) * (dur + grantDelay(x.Proc(j), cs.Sem))
				}
			}
		}

		for _, j := range x.OnProc(x.Proc(i)) {
			tj := sys.Tasks[j]
			switch {
			case tj.Priority > ti.Priority && spin[j] > 0:
				// Factor 4 slot: spin cycles above the charged WCET.
				b.BlockingProcGcs += analysis.Interferes(ti.Period, tj) * spin[j]
			case tj.Priority < ti.Priority && boosted[j] > 0:
				// Factor 5 slot: boosted execution of lower-priority
				// local jobs displaces us regardless of our priority.
				b.LowerLocalGcs += analysis.Interferes(ti.Period, tj) * boosted[j]
			}
		}

		if deferredPenalty {
			for _, j := range x.OnProc(x.Proc(i)) {
				if sys.Tasks[j].Priority > ti.Priority && slices.ContainsFunc(x.Global(j), isLong) {
					b.DeferredPenalty += x.WCET(j)
				}
			}
		}
	}
	return analysis.Keyed(sys, bs), nil
}

// shortSems marks, by semaphore position, the global semaphores whose
// longest critical section over all users is at most shortMax ticks.
func shortSems(sys *task.System, longest [][]int, shortMax int) []bool {
	short := make([]bool, len(sys.Sems))
	for k, sem := range sys.Sems {
		worst := 0
		for _, d := range longest[k] {
			worst = max(worst, d)
		}
		short[k] = sem.Global && worst <= shortMax
	}
	return short
}
