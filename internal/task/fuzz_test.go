package task_test

import (
	"testing"

	"mpcp/internal/task"
)

// fuzzSystem decodes a fuzz input into a one-task system over semaphores
// 1..4: each byte pair is an opcode (compute, lock, unlock) and its
// argument.
func fuzzSystem(data []byte) *task.System {
	sys := task.NewSystem(1)
	for s := task.SemID(1); s <= 4; s++ {
		sys.AddSem(&task.Semaphore{ID: s})
	}
	var body []task.Segment
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i]%3, data[i+1]
		switch op {
		case 0:
			body = append(body, task.Compute(int(arg%32)))
		case 1:
			body = append(body, task.Lock(task.SemID(arg%4+1)))
		case 2:
			body = append(body, task.Unlock(task.SemID(arg%4+1)))
		}
	}
	if len(body) == 0 {
		body = []task.Segment{task.Compute(1)}
	}
	sys.AddTask(&task.Task{ID: 1, Proc: 0, Period: 1000, Priority: 1, Body: body})
	return sys
}

// FuzzValidateBody feeds arbitrary segment streams through validation:
// it must never panic, and whatever it accepts must expose consistent
// critical-section structure.
func FuzzValidateBody(f *testing.F) {
	f.Add([]byte{0, 5, 1, 1, 0, 3, 2, 1}) // compute, lock 1, compute, unlock 1
	f.Add([]byte{1, 1, 1, 2, 2, 2, 2, 1}) // nested pair
	f.Add([]byte{2, 1})                   // unlock without lock
	f.Add([]byte{1, 1})                   // never released
	f.Add([]byte{1, 1, 1, 1})             // self relock
	f.Add([]byte{})                       // empty body

	f.Fuzz(func(t *testing.T, data []byte) {
		sys := fuzzSystem(data)
		if err := sys.Validate(task.ValidateOptions{AllowNestedGlobal: true}); err != nil {
			return
		}
		// Accepted: the derived structure must be consistent.
		total := 0
		for _, cs := range sys.CriticalSections(1) {
			if cs.Duration < 0 || cs.StartSeg >= cs.EndSeg {
				t.Fatalf("bad critical section %+v", cs)
			}
			if cs.Outermost {
				total += cs.Duration
			}
		}
		if total > sys.TaskByID(1).WCET() {
			t.Fatalf("outermost CS time %d exceeds WCET %d", total, sys.TaskByID(1).WCET())
		}
		checkIndex(t, "fuzz", sys)
		// An accepted system must survive Clone + revalidation with the
		// same derived structure (the shrinker and the renaming oracles
		// rely on this).
		clone := sys.Clone(sys.NumProcs)
		if err := clone.Validate(task.ValidateOptions{AllowNestedGlobal: true}); err != nil {
			t.Fatalf("clone of accepted system fails validation: %v", err)
		}
		if got, want := len(clone.CriticalSections(1)), len(sys.CriticalSections(1)); got != want {
			t.Fatalf("clone has %d critical sections, original %d", got, want)
		}
	})
}
