// Package analysis implements the schedulability side of the paper: the
// five worst-case blocking factors of Section 5.1, the deferred-execution
// penalty, the per-processor rate-monotonic schedulability condition of
// Theorem 3, and a response-time iteration refinement. A parallel set of
// bounds for the message-based protocol of [8] supports the Section 5.2
// comparison.
package analysis

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"mpcp/internal/task"
)

// Kind selects which protocol's bounds to compute.
type Kind int

// Supported protocols.
const (
	KindMPCP Kind = iota + 1
	KindDPCP
)

func (k Kind) String() string {
	switch k {
	case KindMPCP:
		return "mpcp"
	case KindDPCP:
		return "dpcp"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Options tunes the analysis.
type Options struct {
	// Kind selects the protocol; default KindMPCP.
	Kind Kind

	// GcsAtCeiling mirrors the protocol option of the same name: gcs
	// execution priorities equal the full global ceiling. It affects
	// factor 4 (which gcs's can preempt a blocking gcs).
	GcsAtCeiling bool

	// DeferredPenalty adds the deferred-execution penalty of Section 5.1:
	// each higher-priority local task that suspends on global semaphores
	// can preempt one extra time within the period. The penalty charged
	// is one extra execution of each such task.
	DeferredPenalty bool

	// DPCPAssign maps global semaphores to synchronization processors for
	// KindDPCP; unset semaphores default to their lowest-numbered
	// accessor processor, matching internal/dpcp.
	DPCPAssign map[task.SemID]task.ProcID
}

// Bound is the per-task worst-case blocking decomposition. Every field is
// in ticks. Total = sum of the five factors plus the penalty.
type Bound struct {
	Task task.ID

	// LocalBlocking is factor 1: local critical sections of lower
	// priority jobs, once per global suspension plus once at arrival
	// (Theorem 1 applied with n = number of gcs requests).
	LocalBlocking int

	// GlobalHeldByLower is factor 2: each gcs request can find the
	// semaphore held by one lower-priority job.
	GlobalHeldByLower int

	// RemotePreemption is factor 3: higher-priority jobs on other
	// processors whose gcs requests on the same semaphores precede ours.
	RemotePreemption int

	// BlockingProcGcs is factor 4: on each blocking processor, gcs's with
	// execution priority above the directly blocking gcs can preempt it,
	// extending our wait.
	BlockingProcGcs int

	// LowerLocalGcs is factor 5: gcs's of lower-priority jobs on our own
	// processor execute above our priority and preempt us. The count per
	// lower-priority task is min(NG_i+1, 2*NG_k) — both are valid upper
	// bounds (the paper's OCR reads "max" but derives the two bounds
	// conjunctively; we take the sound, tighter min and record the choice
	// in EXPERIMENTS.md).
	LowerLocalGcs int

	// DeferredPenalty is the optional scheduling penalty for suspension-
	// induced deferred execution of higher-priority local tasks.
	DeferredPenalty int

	// Total is the worst-case blocking B_i used by the schedulability
	// tests.
	Total int
}

// Factor is one named component of a blocking bound, for report tooling
// that wants the decomposition without reaching into Bound's fields.
type Factor struct {
	Name  string `json:"name"`
	Ticks int    `json:"ticks"`
}

// Factors returns the bound's decomposition in the paper's factor order
// (Section 5.1, factors 1–5, then the optional deferred penalty). The
// slice always has six entries so downstream formats stay aligned; the
// names are stable identifiers, not display strings.
func (b *Bound) Factors() []Factor {
	return []Factor{
		{Name: "local-blocking", Ticks: b.LocalBlocking},
		{Name: "global-held-by-lower", Ticks: b.GlobalHeldByLower},
		{Name: "remote-preemption", Ticks: b.RemotePreemption},
		{Name: "blocking-proc-gcs", Ticks: b.BlockingProcGcs},
		{Name: "lower-local-gcs", Ticks: b.LowerLocalGcs},
		{Name: "deferred-penalty", Ticks: b.DeferredPenalty},
	}
}

// Errors surfaced by the analysis.
var (
	ErrNotValidated = errors.New("analysis: system not validated")
	ErrNestedGlobal = errors.New("analysis: blocking factors require non-nested global critical sections")
)

// Bounds computes the per-task blocking bound under the selected protocol.
func Bounds(sys *task.System, opts Options) (map[task.ID]*Bound, error) {
	if !sys.Validated() {
		return nil, ErrNotValidated
	}
	if opts.Kind == 0 {
		opts.Kind = KindMPCP
	}
	if cs := sys.NestedGlobal(); cs != nil {
		return nil, fmt.Errorf("%w: task %d semaphore %d", ErrNestedGlobal, cs.Task, cs.Sem)
	}
	switch opts.Kind {
	case KindMPCP:
		return mpcpBounds(sys, opts), nil
	case KindDPCP:
		return dpcpBounds(sys, opts), nil
	default:
		return nil, fmt.Errorf("analysis: unknown kind %v", opts.Kind)
	}
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// interferes bounds how many jobs of tj can interfere in a window of w
// ticks: ceil((w + J_j) / T_j^min), the classic jitter-aware arrival
// bound with the sporadic minimum interarrival as the separation. With
// zero jitter and a periodic tj it reduces to ceil(w / T_j). The bound is
// monotone: widening tj's minimum interarrival never increases it, which
// the interarrival-monotonicity conformance oracle certifies end to end.
func interferes(w int, tj *task.Task) int {
	return ceilDiv(w+tj.Jitter, tj.EffectiveMinInterarrival())
}

// Interferes exposes the interference bound to protocol-specific
// analyses outside this package (internal/msrp, internal/fmlp), so
// every registered analysis shares the same jitter-aware arrival curve
// and inherits its monotonicity property.
func Interferes(w int, tj *task.Task) int { return interferes(w, tj) }

// LongestGcs returns, per semaphore position k and accessor a, the
// longest outermost global critical section on Sems[k] issued from
// processor position Index().Accessors(k)[a]: the per-processor queue
// entry of the spin-lock analyses (internal/msrp, internal/fmlp). Entries
// with no such section are 0.
func LongestGcs(sys *task.System) [][]int {
	x := sys.Index()
	total := 0
	for k := range sys.Sems {
		total += len(x.Accessors(k))
	}
	backing, out := make([]int, total), make([][]int, len(sys.Sems))
	for k := range sys.Sems {
		n := len(x.Accessors(k))
		out[k], backing = backing[:n:n], backing[n:]
	}
	for i := range sys.Tasks {
		for _, cs := range x.Global(i) {
			a := slices.Index(x.Accessors(cs.Sem), x.Proc(i))
			out[cs.Sem][a] = max(out[cs.Sem][a], cs.Dur)
		}
	}
	return out
}

// ArrivalBlocking returns the longest local critical section of a
// lower-priority task on task i's processor whose ceiling reaches P_i:
// the one section the PCP lets block a job per blocking window.
func ArrivalBlocking(sys *task.System, i int) int {
	x, pi, worst := sys.Index(), sys.Tasks[i].Priority, 0
	for _, k := range x.OnProc(x.Proc(i)) {
		if sys.Tasks[k].Priority >= pi {
			continue
		}
		for _, cs := range x.Local(k) {
			if cs.Prio >= pi && cs.Dur > worst {
				worst = cs.Dur
			}
		}
	}
	return worst
}

// Keyed finishes bounds computed in a slice parallel to sys.Tasks: it
// sets each Task and Total and returns them keyed by task ID.
func Keyed(sys *task.System, bs []Bound) map[task.ID]*Bound {
	out := make(map[task.ID]*Bound, len(bs))
	for i := range bs {
		b := &bs[i]
		b.Task = sys.Tasks[i].ID
		b.Total = b.LocalBlocking + b.GlobalHeldByLower + b.RemotePreemption +
			b.BlockingProcGcs + b.LowerLocalGcs + b.DeferredPenalty
		out[b.Task] = b
	}
	return out
}

// GcsRef is one outermost global section and the position of its task.
type GcsRef struct {
	Task int
	task.Sec
}

// groupGcs files every outermost global section, in task order, under
// the group of its semaphore position; group -1 leaves it out.
func groupGcs(sys *task.System, group func(k int) int, n int) [][]GcsRef {
	x := sys.Index()
	counts, total := make([]int, n), 0
	for i := range sys.Tasks {
		for _, cs := range x.Global(i) {
			if g := group(cs.Sem); g >= 0 {
				counts[g]++
				total++
			}
		}
	}
	backing, out := make([]GcsRef, total), make([][]GcsRef, n)
	for g, c := range counts {
		out[g], backing = backing[:0:c], backing[c:]
	}
	for i := range sys.Tasks {
		for _, cs := range x.Global(i) {
			if g := group(cs.Sem); g >= 0 {
				out[g] = append(out[g], GcsRef{Task: i, Sec: cs})
			}
		}
	}
	return out
}

// GcsBySem lists every outermost global section under its semaphore
// position, in task order, so a task's sections on one semaphore are
// adjacent.
func GcsBySem(sys *task.System) [][]GcsRef {
	return groupGcs(sys, func(k int) int { return k }, len(sys.Sems))
}

// syncGroups resolves the synchronization processor of each global
// semaphore kept by keep exactly as internal/dpcp does (the explicit
// assignment, else the lowest-numbered accessor) and groups the
// semaphores' outermost global sections by it: group[k] is semaphore k's
// group, -1 if it has none, and procs[g] is group g's processor.
func syncGroups(sys *task.System, explicit map[task.SemID]task.ProcID, keep func(k int) bool) (secs [][]GcsRef, group []int, procs []task.ProcID) {
	x := sys.Index()
	group = make([]int, len(sys.Sems))
	for k, sem := range sys.Sems {
		group[k] = -1
		if !sem.Global || !keep(k) {
			continue
		}
		p, ok := explicit[sem.ID]
		if !ok {
			p = x.ProcID(x.Accessors(k)[0]) // a global semaphore has two or more
		}
		if group[k] = slices.Index(procs, p); group[k] < 0 {
			group[k], procs = len(procs), append(procs, p)
		}
	}
	return groupGcs(sys, func(k int) int { return group[k] }, len(procs)), group, procs
}

// distinct refills dst with the non-negative values of key over secs,
// once each.
func distinct(dst []int, secs []task.Sec, key func(task.Sec) int) []int {
	dst = dst[:0]
	for _, cs := range secs {
		if v := key(cs); v >= 0 && !slices.Contains(dst, v) {
			dst = append(dst, v)
		}
	}
	return dst
}

func semOf(cs task.Sec) int { return cs.Sem }

// heldByLower is factor 2 for one request: the longest section in refs
// of a task other than i with priority below prio.
func heldByLower(sys *task.System, refs []GcsRef, i, prio int) int {
	worst := 0
	for _, r := range refs {
		if r.Task != i && sys.Tasks[r.Task].Priority < prio && r.Dur > worst {
			worst = r.Dur
		}
	}
	return worst
}

// demand sums, over the sections in refs of tasks other than i with
// priority above floor, the section's ticks times its task's arrivals
// within T_i.
func demand(sys *task.System, refs []GcsRef, i, floor int, arrivals func(int, *task.Task) int) int {
	total := 0
	for _, r := range refs {
		if tj := sys.Tasks[r.Task]; r.Task != i && tj.Priority > floor {
			total += arrivals(sys.Tasks[i].Period, tj) * r.Dur
		}
	}
	return total
}

// deferredPenalty charges one extra execution of each higher-priority
// task on task i's processor that can suspend: one with a global
// section.
func deferredPenalty(sys *task.System, i int) int {
	x, total := sys.Index(), 0
	for _, j := range x.OnProc(x.Proc(i)) {
		if sys.Tasks[j].Priority > sys.Tasks[i].Priority && len(x.Global(j)) > 0 {
			total += x.WCET(j)
		}
	}
	return total
}

// remoteScratch holds the per-processor scratch of factors 3 and 4.
type remoteScratch struct {
	sys                    *task.System
	minPrio, seen, blocked []int
}

func newRemoteScratch(sys *task.System) *remoteScratch {
	n := sys.Index().Procs()
	return &remoteScratch{sys: sys, minPrio: make([]int, n), seen: make([]int, n)}
}

// factors computes factors 3 and 4 of task i over its distinct shared
// semaphores. Factor 3: higher-priority jobs on other processors
// requesting the same semaphores precede us; each can do so once per
// release within T_i. Factor 4: on each blocking processor — one where a
// lower-priority job requests a shared semaphore — every gcs that
// counted accepts and whose priority (prio) exceeds the lowest such
// request's preempts the gcs directly blocking us. arrivals bounds the
// releases within T_i.
func (s *remoteScratch) factors(onSem [][]GcsRef, shared []int, i int, prio func(task.Sec) int,
	counted func(task.Sec) bool, arrivals func(int, *task.Task) int) (f3, f4 int) {
	sys, x, ti := s.sys, s.sys.Index(), s.sys.Tasks[i]
	s.blocked = s.blocked[:0]
	for _, k := range shared {
		for _, r := range onSem[k] {
			tk, q := sys.Tasks[r.Task], x.Proc(r.Task)
			switch {
			case q == x.Proc(i):
			case tk.Priority > ti.Priority:
				f3 += arrivals(ti.Period, tk) * r.Dur
			case tk.Priority < ti.Priority:
				if s.seen[q] != i+1 {
					s.seen[q], s.minPrio[q] = i+1, prio(r.Sec)
					s.blocked = append(s.blocked, q)
				}
				s.minPrio[q] = min(s.minPrio[q], prio(r.Sec))
			}
		}
	}
	for _, q := range s.blocked {
		for _, l := range x.OnProc(q) {
			dur := 0
			for _, cs := range x.Global(l) {
				if counted(cs) && prio(cs) > s.minPrio[q] {
					dur += cs.Dur
				}
			}
			if dur > 0 {
				f4 += arrivals(ti.Period, sys.Tasks[l]) * dur
			}
		}
	}
	return f3, f4
}

func all(task.Sec) bool { return true }

// gcsPrioOf is a section's Section 4.4 gcs priority.
func gcsPrioOf(cs task.Sec) int { return cs.Prio }

// mpcpBounds implements the five factors of Section 5.1.
func mpcpBounds(sys *task.System, opts Options) map[task.ID]*Bound {
	x := sys.Index()
	gcsPrio := gcsPrioOf
	if opts.GcsAtCeiling {
		gcsPrio = func(cs task.Sec) int { return x.Ceiling(cs.Sem) }
	}
	onSem := GcsBySem(sys)
	bs := make([]Bound, len(sys.Tasks))
	remote := newRemoteScratch(sys)
	var shared []int

	for i, ti := range sys.Tasks {
		b := &bs[i]
		gcsI := x.Global(i)
		ng, qi := len(gcsI), x.Proc(i)
		shared = distinct(shared, gcsI, semOf)

		// Factor 1: (NG_i + 1) opportunities to be blocked by one local
		// critical section of a lower-priority job whose ceiling reaches
		// P_i.
		b.LocalBlocking = (ng + 1) * ArrivalBlocking(sys, i)

		// Factor 2: per gcs request, the semaphore may be held by the
		// longest lower-priority gcs on the same semaphore.
		for _, cs := range gcsI {
			b.GlobalHeldByLower += heldByLower(sys, onSem[cs.Sem], i, ti.Priority)
		}

		// Factors 3 and 4.
		b.RemotePreemption, b.BlockingProcGcs = remote.factors(onSem, shared, i, gcsPrio, all, interferes)

		// Factor 5: gcs's of lower-priority local jobs run above our
		// priority. Each lower-priority task τk contributes at most
		// min(NG_i + 1, 2·NG_k) sections of its longest gcs.
		for _, k := range x.OnProc(qi) {
			if sys.Tasks[k].Priority >= ti.Priority {
				continue
			}
			maxGcs := 0
			for _, cs := range x.Global(k) {
				maxGcs = max(maxGcs, cs.Dur)
			}
			b.LowerLocalGcs += min(ng+1, 2*len(x.Global(k))) * maxGcs
		}

		if opts.DeferredPenalty {
			b.DeferredPenalty = deferredPenalty(sys, i)
		}
	}
	return Keyed(sys, bs)
}

// dpcpBounds computes the analogous decomposition for the message-based
// protocol: contention happens on synchronization processors, where every
// gcs executes at the global ceiling of its semaphore.
func dpcpBounds(sys *task.System, opts Options) map[task.ID]*Bound {
	x := sys.Index()
	onSync, group, syncProcs := syncGroups(sys, opts.DPCPAssign, func(int) bool { return true })
	groupOf := func(cs task.Sec) int { return group[cs.Sem] }
	bs := make([]Bound, len(sys.Tasks))
	var groups []int

	for i, ti := range sys.Tasks {
		b := &bs[i]
		gcsI := x.Global(i)
		groups = distinct(groups, gcsI, groupOf)

		// Factor 1: identical local PCP blocking.
		b.LocalBlocking = (len(gcsI) + 1) * ArrivalBlocking(sys, i)

		// Factor 2 analog: each of our requests can wait for one
		// lower-priority gcs in service on the same sync processor.
		for _, cs := range gcsI {
			b.GlobalHeldByLower += heldByLower(sys, onSync[groupOf(cs)], i, ti.Priority)
		}

		// Factor 3 analog: higher-priority gcs's on the sync processors we
		// use delay our agents.
		for _, g := range groups {
			b.RemotePreemption += demand(sys, onSync[g], i, ti.Priority, interferes)
		}

		// Factor 5 analog: agents of other tasks executing on our own
		// processor (when it doubles as a synchronization processor)
		// preempt us at ceiling priority regardless of task priorities.
		if g := slices.Index(syncProcs, ti.Proc); g >= 0 {
			b.LowerLocalGcs += demand(sys, onSync[g], i, math.MinInt, interferes)
		}

		if opts.DeferredPenalty {
			b.DeferredPenalty = deferredPenalty(sys, i)
		}
	}
	return Keyed(sys, bs)
}

// TaskReport is the per-task outcome of a schedulability test.
type TaskReport struct {
	Task task.ID
	Proc task.ProcID
	C    int
	T    int
	B    int

	// Utilization-bound test (Theorem 3).
	UtilLHS float64
	UtilRHS float64
	UtilOK  bool

	// Response-time iteration. Response is -1 when the iteration exceeds
	// the deadline (unschedulable).
	Response   int
	ResponseOK bool
}

// Loss returns the schedulability loss due to blocking, B/T — the metric
// Section 3.3 uses to argue that lower-priority (longer-period) jobs
// should absorb waiting whenever possible.
func (tr TaskReport) Loss() float64 {
	if tr.T == 0 {
		return 0
	}
	return float64(tr.B) / float64(tr.T)
}

// Report is a full schedulability verdict.
type Report struct {
	// SchedulableUtil is Theorem 3's verdict (sufficient condition).
	SchedulableUtil bool
	// SchedulableResponse is the response-time iteration's verdict.
	SchedulableResponse bool
	Tasks               []TaskReport
}

// Schedulability runs both the Theorem 3 utilization test and the
// response-time iteration on every processor, using the supplied blocking
// bounds.
func Schedulability(sys *task.System, bounds map[task.ID]*Bound, opts Options) (*Report, error) {
	if !sys.Validated() {
		return nil, ErrNotValidated
	}
	x := sys.Index()
	rep := &Report{SchedulableUtil: true, SchedulableResponse: true, Tasks: make([]TaskReport, 0, len(sys.Tasks))}

	for q := 0; q < x.Procs(); q++ {
		tasks := x.OnProc(q) // descending priority
		for i, pos := range tasks {
			ti := sys.Tasks[pos]
			b := 0
			if bd := bounds[ti.ID]; bd != nil {
				b = bd.Total
			}
			tr := TaskReport{Task: ti.ID, Proc: ti.Proc, C: x.WCET(pos), T: ti.Period, B: b}

			// Theorem 3: sum_{j<=i} C_j/T_j + B_i/T_i <= i (2^{1/i} - 1).
			// Sporadic tasks are charged at their worst-case rate (the
			// minimum interarrival), so the sufficient condition stays
			// sound under the sporadic model.
			lhs := float64(b) / float64(ti.EffectiveMinInterarrival())
			for _, j := range tasks[:i+1] {
				lhs += float64(x.WCET(j)) / float64(sys.Tasks[j].EffectiveMinInterarrival())
			}
			n := float64(i + 1)
			rhs := n * (math.Pow(2, 1/n) - 1)
			tr.UtilLHS, tr.UtilRHS = lhs, rhs
			tr.UtilOK = lhs <= rhs+1e-12
			if !tr.UtilOK {
				rep.SchedulableUtil = false
			}

			// Response-time iteration:
			// R = C_i + B_i + sum_{j<i} ceil(R/T_j) C_j (+ one extra C_j
			// per suspending higher-priority task when the deferred
			// penalty is modeled structurally rather than inside B).
			tr.Response, tr.ResponseOK = responseTime(sys, tasks[:i], pos, b)
			if !tr.ResponseOK {
				rep.SchedulableResponse = false
			}
			rep.Tasks = append(rep.Tasks, tr)
		}
	}
	sort.Slice(rep.Tasks, func(a, b int) bool { return rep.Tasks[a].Task < rep.Tasks[b].Task })
	return rep, nil
}

// responseTime runs the jitter-aware response-time iteration: interfering
// releases of each higher-priority tj are bounded by ceil((R + J_j) /
// T_j^min), and the verdict compares R + J_i against the deadline — the
// job's own jitter delays its release but not its deadline, so it eats
// into the slack.
func responseTime(sys *task.System, higher []int, i, b int) (int, bool) {
	x, ti := sys.Index(), sys.Tasks[i]
	deadline := ti.RelativeDeadline()
	r := x.WCET(i) + b
	for iter := 0; iter < 1000; iter++ {
		next := x.WCET(i) + b
		for _, j := range higher {
			next += interferes(r, sys.Tasks[j]) * x.WCET(j)
		}
		if next == r {
			return r, r+ti.Jitter <= deadline
		}
		if next+ti.Jitter > deadline {
			return -1, false
		}
		r = next
	}
	return -1, false
}
