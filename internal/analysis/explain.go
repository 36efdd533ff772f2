package analysis

import (
	"fmt"
	"slices"
	"strings"

	"mpcp/internal/task"
)

// Explain renders a human-readable account of why task id's blocking
// bound is what it is under the shared-memory protocol: which semaphores,
// critical sections and tasks contribute to each of the five factors.
// It recomputes the factors with full attribution, so the numbers match
// Bounds exactly for KindMPCP.
func Explain(sys *task.System, id task.ID, opts Options) (string, error) {
	if !sys.Validated() {
		return "", ErrNotValidated
	}
	x := sys.Index()
	i, ok := x.TaskPos(id)
	if !ok {
		return "", fmt.Errorf("analysis: no task %d", id)
	}
	ti := sys.Tasks[i]
	bounds, err := Bounds(sys, Options{Kind: KindMPCP, DeferredPenalty: opts.DeferredPenalty, GcsAtCeiling: opts.GcsAtCeiling})
	if err != nil {
		return "", err
	}
	b := bounds[id]

	var w strings.Builder
	fmt.Fprintf(&w, "Worst-case blocking of task %d (%s), priority %d on P%d: B = %d ticks\n",
		ti.ID, ti.Name, ti.Priority, ti.Proc, b.Total)

	gcsI := x.Global(i)
	ng := len(gcsI)
	fmt.Fprintf(&w, "The task enters %d global critical section(s), so it can suspend %d time(s).\n\n", ng, ng)
	lower := func(k int) bool { return sys.Tasks[k].Priority < ti.Priority }

	// Factor 1.
	fmt.Fprintf(&w, "1. Local blocking around suspensions: %d\n", b.LocalBlocking)
	if b.LocalBlocking > 0 {
		var worst task.Sec
		owner := -1
		for _, k := range x.OnProc(x.Proc(i)) {
			for _, cs := range x.Local(k) {
				if lower(k) && cs.Prio >= ti.Priority && cs.Dur > worst.Dur {
					worst, owner = cs, k
				}
			}
		}
		if owner >= 0 {
			fmt.Fprintf(&w, "   (%d arrival/suspension opportunities) x (%d ticks: task %d's section on %s, ceiling %d >= P%d)\n",
				ng+1, worst.Dur, sys.Tasks[owner].ID, semName(sys.Sems[worst.Sem]), worst.Prio, ti.Priority)
		}
	} else {
		fmt.Fprintf(&w, "   no lower-priority local critical section has a ceiling reaching this task\n")
	}

	// Factor 2.
	fmt.Fprintf(&w, "2. Global semaphore held by a lower-priority job: %d\n", b.GlobalHeldByLower)
	for _, cs := range gcsI {
		worst, owner := 0, -1
		for k := range sys.Tasks {
			for _, other := range x.Global(k) {
				if k != i && lower(k) && other.Sem == cs.Sem && other.Dur > worst {
					worst, owner = other.Dur, k
				}
			}
		}
		if owner >= 0 {
			fmt.Fprintf(&w, "   request on %s: up to %d ticks behind task %d\n",
				semName(sys.Sems[cs.Sem]), worst, sys.Tasks[owner].ID)
		} else {
			fmt.Fprintf(&w, "   request on %s: no lower-priority user\n", semName(sys.Sems[cs.Sem]))
		}
	}

	// Factor 3.
	fmt.Fprintf(&w, "3. Higher-priority remote requests preceding ours: %d\n", b.RemotePreemption)
	for j, tj := range sys.Tasks {
		if x.Proc(j) == x.Proc(i) || tj.Priority <= ti.Priority {
			continue
		}
		dur := 0
		for _, cs := range x.Global(j) {
			if slices.ContainsFunc(gcsI, func(own task.Sec) bool { return own.Sem == cs.Sem }) {
				dur += cs.Dur
			}
		}
		if dur > 0 {
			fmt.Fprintf(&w, "   task %d on P%d: ceil(%d/%d)=%d release(s) x %d gcs ticks\n",
				tj.ID, tj.Proc, ti.Period, tj.Period, ceilDiv(ti.Period, tj.Period), dur)
		}
	}

	// Factor 4.
	fmt.Fprintf(&w, "4. Preemption of the gcs directly blocking us: %d\n", b.BlockingProcGcs)

	// Factor 5.
	fmt.Fprintf(&w, "5. Lower-priority local gcs's executing above us: %d\n", b.LowerLocalGcs)
	for _, k := range x.OnProc(x.Proc(i)) {
		ngk := len(x.Global(k))
		if !lower(k) || ngk == 0 {
			continue
		}
		maxGcs := 0
		for _, cs := range x.Global(k) {
			maxGcs = max(maxGcs, cs.Dur)
		}
		fmt.Fprintf(&w, "   task %d: min(NG+1=%d, 2x%d)=%d boost(s) x %d ticks\n",
			sys.Tasks[k].ID, ng+1, ngk, min(ng+1, 2*ngk), maxGcs)
	}

	if opts.DeferredPenalty {
		fmt.Fprintf(&w, "6. Deferred-execution penalty of suspending higher-priority local tasks: %d\n", b.DeferredPenalty)
		for _, j := range x.OnProc(x.Proc(i)) {
			if sys.Tasks[j].Priority > ti.Priority && len(x.Global(j)) > 0 {
				fmt.Fprintf(&w, "   task %d can defer: one extra execution of C=%d\n", sys.Tasks[j].ID, x.WCET(j))
			}
		}
	}
	return w.String(), nil
}

func semName(sem *task.Semaphore) string {
	if sem.Name != "" {
		return sem.Name
	}
	return fmt.Sprintf("S%d", sem.ID)
}
