package msrp

import (
	"fmt"

	"mpcp/internal/analysis"
	"mpcp/internal/task"
)

// Bounds computes the per-task worst-case blocking decomposition for
// MSRP (Gai, Lipari & Di Natale, RTSS 2001, adapted to this repo's
// tick-accurate model). The terms are mapped onto the Section 5.1
// factor slots of analysis.Bound so report tooling stays aligned:
//
//   - LocalBlocking (factor 1): one local critical section of a
//     lower-priority job whose ceiling reaches P_i, exactly the PCP
//     arrival-blocking term.
//   - RemotePreemption (factor 3): the job's own FIFO spin time. Jobs
//     spin non-preemptably, so each processor has at most one
//     outstanding request per semaphore; a request on S therefore
//     waits at most for the longest critical section on S from each
//     other processor, once per own request.
//   - BlockingProcGcs (factor 4): spin cycles burned by
//     higher-priority local jobs. Spinning consumes processor time
//     over and above the WCET charged by the response-time iteration,
//     so each higher-priority local release is charged its own
//     per-job spin bound.
//   - LowerLocalGcs (factor 5): arrival blocking by one non-preemptive
//     section (spin plus critical section) of a lower-priority local
//     job. Non-preemptive execution means at most one such section
//     can be in progress at the release instant, and no new one starts
//     while the job is ready.
//
// GlobalHeldByLower stays zero — FIFO queues do not order by priority,
// so the hold-by-lower wait is folded into the per-request spin term.
// DeferredPenalty stays zero: MSRP never self-suspends, so there is no
// deferred-execution penalty to charge. Every term is monotone in the
// minimum interarrival times (via the shared interference bound), which
// the interarrival-monotonicity conformance oracle checks end to end.
func Bounds(sys *task.System) (map[task.ID]*analysis.Bound, error) {
	if !sys.Validated() {
		return nil, analysis.ErrNotValidated
	}
	if cs := sys.NestedGlobal(); cs != nil {
		return nil, fmt.Errorf("%w: task %d semaphore %d", analysis.ErrNestedGlobal, cs.Task, cs.Sem)
	}

	x := sys.Index()
	longest := analysis.LongestGcs(sys)
	// spinReq(q, k): worst-case busy-wait of one request from processor
	// position q on semaphore k — one critical section per other
	// processor, FIFO.
	spinReq := func(q, k int) int {
		total := 0
		for a, p := range x.Accessors(k) {
			if p != q {
				total += longest[k][a]
			}
		}
		return total
	}
	// spin[i]: total busy-wait of one job of task i across all of its
	// global requests.
	spin := make([]int, len(sys.Tasks))
	for i := range sys.Tasks {
		for _, cs := range x.Global(i) {
			spin[i] += spinReq(x.Proc(i), cs.Sem)
		}
	}

	bs := make([]analysis.Bound, len(sys.Tasks))
	for i, ti := range sys.Tasks {
		b := &bs[i]

		// Factor 1: PCP arrival blocking through one local critical
		// section with ceiling >= P_i.
		b.LocalBlocking = analysis.ArrivalBlocking(sys, i)

		// Factor 3 slot: own spin time, once per request.
		b.RemotePreemption = spin[i]

		for _, j := range x.OnProc(x.Proc(i)) {
			tj := sys.Tasks[j]
			if tj.Priority > ti.Priority {
				// Factor 4 slot: spin cycles of higher-priority local
				// releases within the period, on top of their WCET.
				if spin[j] > 0 {
					b.BlockingProcGcs += analysis.Interferes(ti.Period, tj) * spin[j]
				}
				continue
			}
			// Factor 5 slot: one non-preemptive section (spin + gcs) of
			// a lower-priority local job at arrival.
			for _, cs := range x.Global(j) {
				if j != i {
					b.LowerLocalGcs = max(b.LowerLocalGcs, spinReq(x.Proc(j), cs.Sem)+cs.Dur)
				}
			}
		}
	}
	return analysis.Keyed(sys, bs), nil
}
