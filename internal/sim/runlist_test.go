package sim_test

import (
	"testing"

	"mpcp/internal/registry"
	"mpcp/internal/sim"
	"mpcp/internal/task"
	"mpcp/internal/workload"
)

// TestRunListsMatchActiveSet steps every registered protocol one Step at
// a time, under both steppers and both overload policies, and checks
// after every step that each processor's run list is exactly the active
// set filtered to that processor, in the same order. The dispatcher and
// pcp.Local read only the run lists, so a job missing from them, or one
// left behind after it finished or aborted, would change the schedule.
func TestRunListsMatchActiveSet(t *testing.T) {
	var sawAgent, sawAbort bool
	for _, d := range registry.All() {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := workload.Default(seed)
			cfg.UtilPerProc = 0.95 // overloaded enough to miss and abort
			cfg.Sporadic = seed == 3
			cfg.MinGapFrac, cfg.MaxJitterFrac = 0.8, 0.1
			if d.Caps.UniprocOnly {
				cfg.NumProcs, cfg.GlobalSems, cfg.GcsPerTask = 1, 0, [2]int{0, 0}
			}
			sys, err := workload.Generate(cfg)
			if err != nil {
				t.Fatalf("%s seed %d: %v", d.Name, seed, err)
			}
			for _, reference := range []bool{false, true} {
				for _, overload := range []sim.OverloadPolicy{sim.OverloadContinue, sim.OverloadAbort} {
					p, err := d.New(registry.Opts{Sys: sys})
					if err != nil {
						t.Fatal(err)
					}
					e, err := sim.New(sys, p, sim.Config{ReferenceStepper: reference, Overload: overload})
					if err != nil {
						t.Fatalf("%s seed %d: %v", d.Name, seed, err)
					}
					if checkRunLists(t, e, sys.NumProcs) {
						sawAgent = true
					}
					for _, st := range e.Result().Stats {
						sawAbort = sawAbort || st.Aborted > 0
					}
					if t.Failed() {
						t.Fatalf("%s seed %d reference=%v overload=%v", d.Name, seed, reference, overload)
					}
				}
			}
		}
	}
	if !sawAgent {
		t.Error("no agent job was ever active; the agent path went unchecked")
	}
	if !sawAbort {
		t.Error("no job was ever aborted; the abort path went unchecked")
	}
}

// checkRunLists runs e to completion, comparing JobsOn against the
// filtered ActiveJobs after every Step, and reports whether any agent job
// was ever active.
func checkRunLists(t *testing.T, e *sim.Engine, procs int) (sawAgent bool) {
	t.Helper()
	for done := false; !done; {
		var err error
		if done, err = e.Step(); err != nil {
			t.Fatal(err)
		}
		for p := 0; p < procs; p++ {
			var want []*sim.Job
			for _, j := range e.ActiveJobs() {
				if j.Proc == task.ProcID(p) {
					want = append(want, j)
					sawAgent = sawAgent || j.IsAgent()
				}
			}
			got := e.JobsOn(task.ProcID(p))
			if len(got) != len(want) {
				t.Errorf("t=%d proc %d: run list has %d jobs, active set %d", e.Now(), p, len(got), len(want))
				return sawAgent
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("t=%d proc %d: run list[%d] = %v, active set has %v", e.Now(), p, i, got[i], want[i])
					return sawAgent
				}
			}
		}
	}
	return sawAgent
}
