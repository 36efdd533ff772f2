package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// stamp records the settings a set of numbers was taken under. It is
// printed with every run and stored in every traced output, and compare
// flags any field other than the revision that differs between sides.
type stamp struct {
	GitSHA         string  `json:"git_sha"`
	GoVersion      string  `json:"go_version"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	NumCPU         int     `json:"num_cpu"`
	CPU            string  `json:"cpu"`
	ComputeWorkers int     `json:"compute_workers"`
	ShardSize      int     `json:"shard_size"`
	WorkerPollMs   float64 `json:"worker_poll_ms"`
	ClientPollMs   float64 `json:"client_poll_ms"`
	Workload       string  `json:"workload"`
	Seed           int64   `json:"seed"`
	Seconds        float64 `json:"seconds"`
	Trace          bool    `json:"trace"`
}

func newStamp(w benchWorkload, seed int64, seconds float64, trace bool) stamp {
	return stamp{
		GitSHA:         gitSHA("."),
		GoVersion:      runtime.Version(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		NumCPU:         runtime.NumCPU(),
		CPU:            cpuModel(),
		ComputeWorkers: computeWorkers,
		ShardSize:      shardSize,
		WorkerPollMs:   float64(workerPoll.Microseconds()) / 1000,
		ClientPollMs:   float64(clientPoll.Microseconds()) / 1000,
		Workload:       w.name,
		Seed:           seed,
		Seconds:        seconds,
		Trace:          trace,
	}
}

// gitSHA resolves HEAD from the .git directory under root without
// running git, which would search the parent directories. A checkout
// without .git falls back to $PERFBENCH_GIT_SHA, then "unknown".
func gitSHA(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		if v := os.Getenv("PERFBENCH_GIT_SHA"); v != "" {
			return v
		}
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	if f, err := os.Open(filepath.Join(root, ".git", "packed-refs")); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if sha, name, ok := strings.Cut(sc.Text(), " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
