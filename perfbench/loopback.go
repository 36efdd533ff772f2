package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mpcp/internal/campaign"
	"mpcp/internal/dist"
	"mpcp/internal/obs"
)

// loopback serves an in-process dist coordinator on a 127.0.0.1
// listener and drives campaigns through it with dist.RemoteShards,
// computed by computeWorkers dist.Worker loops of one goroutine each.
// Set-up makes a fresh on-disk cache pre-warmed with the lower half of
// the utilisation axis. Every iteration then gets a fresh coordinator
// and data directory over that cache, with the entries earlier
// iterations added moved out again, so each iteration finds exactly the
// warmed entries — as a coordinator restarted over a long-lived cache
// would — without rebuilding the cache's directory tree.
type loopback struct {
	dir     string
	url     string
	httpSrv *http.Server
	served  chan error
	current atomic.Pointer[dist.Server]
	client  *http.Client
	workers []*http.Client
	// setups counts set-ups and runs the iterations since the last.
	setups, runs int
	// cache is the set-up's cache; warmed holds its entry paths
	// relative to the cache directory, and warmUnits how many units
	// set-up stored.
	cache     *dist.Cache
	warmed    map[string]bool
	warmUnits int
	// cached is how many units the last iteration's submission found
	// in the cache.
	cached int
	// staleLeases sums the workers' refused shard submissions.
	staleLeases int
	closeOnce   sync.Once
	closeErr    error
}

// newLoopback starts the listener. With dt set, the coordinator's
// handler and every client transport are wrapped in dist spans.
func newLoopback(dir string, dt *distTracer) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("loopback listener: %w", err)
	}
	lb := &loopback{dir: dir, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	var h http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lb.current.Load().Handler().ServeHTTP(w, r)
	})
	if dt != nil {
		h = dt.handler(h)
	}
	lb.httpSrv = &http.Server{Handler: h}
	go func() { lb.served <- lb.httpSrv.Serve(ln) }()
	lb.client = dt.client("client")
	for i := 0; i < computeWorkers; i++ {
		lb.workers = append(lb.workers, dt.client("worker"+strconv.Itoa(i)))
	}
	return lb, nil
}

func (lb *loopback) setupDir() string {
	return filepath.Join(lb.dir, "loopback-"+strconv.Itoa(lb.setups))
}

func (lb *loopback) cacheDir() string { return filepath.Join(lb.setupDir(), "cache") }

// setup makes a fresh cache, in a directory of its own, pre-warmed with
// warmSpec(spec). Earlier set-ups' directories are left for the run's
// clean-up: see reset.
func (lb *loopback) setup(spec *campaign.Spec) error {
	lb.setups++
	lb.runs = 0
	cache, err := dist.NewCache(lb.cacheDir(), nil)
	if err != nil {
		return err
	}
	units, err := warm(cache, warmSpec(spec))
	if err != nil {
		return fmt.Errorf("warm cache: %w", err)
	}
	warmed, err := cacheEntries(lb.cacheDir())
	if err != nil {
		return err
	}
	if len(warmed) != units {
		return fmt.Errorf("warm cache: %d entries for %d units", len(warmed), units)
	}
	lb.cache, lb.warmed, lb.warmUnits = cache, make(map[string]bool, len(warmed)), units
	for _, e := range warmed {
		lb.warmed[e] = true
	}
	return nil
}

// reset prepares the next iteration: it moves the cache entries that
// are not the set-up's out of the cache and starts a fresh coordinator
// over the cache with a new, empty data directory, so no checkpoint is
// resumed. Nothing is deleted until the run's clean-up: ext4 without a
// journal skips recently freed inodes when it allocates new ones, so
// deleting entries between iterations would make the coordinator's
// cache writes slower the more the benchmark itself had cleaned up.
func (lb *loopback) reset() error {
	entries, err := cacheEntries(lb.cacheDir())
	if err != nil {
		return err
	}
	lb.runs++
	moved := filepath.Join(lb.setupDir(), "moved-"+strconv.Itoa(lb.runs))
	if err := os.Mkdir(moved, 0o755); err != nil {
		return err
	}
	for i, e := range entries {
		if !lb.warmed[e] {
			if err := os.Rename(filepath.Join(lb.cacheDir(), e), filepath.Join(moved, strconv.Itoa(i))); err != nil {
				return err
			}
		}
	}
	data := filepath.Join(lb.setupDir(), "data-"+strconv.Itoa(lb.runs))
	lb.current.Store(dist.NewServer(dist.ServerOptions{Cache: lb.cache, DataDir: data, ShardSize: shardSize}))
	return nil
}

// cacheEntries lists the files under a cache directory, relative to it.
func cacheEntries(dir string) ([]string, error) {
	var entries []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		entries = append(entries, rel)
		return err
	})
	return entries, err
}

// check fails unless the last iteration's submission was served from
// the cache for exactly the units set-up warmed.
func (lb *loopback) check() error {
	if lb.cached != lb.warmUnits {
		return fmt.Errorf("loopback iteration %d found %d units cached, set-up warmed %d", lb.runs, lb.cached, lb.warmUnits)
	}
	return nil
}

// warm computes every point of spec on the pool and stores it in the
// cache under the content address the coordinator looks up at submit.
// It returns the number of units stored.
func warm(cache *dist.Cache, spec *campaign.Spec) (int, error) {
	payload, err := json.Marshal(dist.SweepPayload{Spec: spec})
	if err != nil {
		return 0, err
	}
	task, err := dist.DefaultRunners()[dist.KindSweep].Open(payload)
	if err != nil {
		return 0, err
	}
	units := make([]int, task.Units())
	for i := range units {
		units[i] = i
	}
	var firstErr error
	campaign.ForEach(computeWorkers, units, func(_ int, u int) error {
		doc, failures, err := task.Run(u, nil)
		if err != nil {
			return err
		}
		return cache.Put(task.CacheKey(u), doc, failures)
	}, func(_ int, err error) {
		if firstErr == nil {
			firstErr = err
		}
	})
	return len(units), firstErr
}

func (lb *loopback) run(spec *campaign.Spec, path string) (*campaign.Campaign, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	stats := make([]dist.WorkerStats, len(lb.workers))
	errs := make([]error, len(lb.workers))
	for i, hc := range lb.workers {
		w := &dist.Worker{
			Client:     &dist.Client{BaseURL: lb.url, HTTP: hc},
			Name:       "worker" + strconv.Itoa(i),
			Workers:    1,
			Poll:       workerPoll,
			ExitOnDone: true,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[i], errs[i] = w.Run(ctx)
		}()
	}
	reg := obs.NewRegistry()
	c, err := campaign.Run(spec, campaign.Options{
		Workers:     computeWorkers,
		ResultsPath: path,
		Executor: &dist.RemoteShards{
			Client:  &dist.Client{BaseURL: lb.url, HTTP: lb.client},
			Poll:    clientPoll,
			Metrics: reg,
		},
	})
	lb.cached = int(reg.Counter("dist_remote_cached").Value())
	if err != nil {
		cancel() // the job may never complete; stop the workers
	}
	wg.Wait()
	for i := range stats {
		lb.staleLeases += stats[i].StaleLeases
		if errs[i] != nil && !errors.Is(errs[i], context.Canceled) && err == nil {
			err = fmt.Errorf("worker %d: %w", i, errs[i])
		}
	}
	if cerr := lb.current.Load().Close(); cerr != nil && err == nil {
		err = cerr
	}
	return c, err
}

// close shuts the HTTP server down, waiting for in-flight handlers, and
// drops the clients' idle connections. Repeated calls return the first
// result.
func (lb *loopback) close() error {
	lb.closeOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		lb.closeErr = lb.httpSrv.Shutdown(ctx)
		if err := <-lb.served; !errors.Is(err, http.ErrServerClosed) && lb.closeErr == nil {
			lb.closeErr = err
		}
		lb.client.CloseIdleConnections()
		for _, hc := range lb.workers {
			hc.CloseIdleConnections()
		}
	})
	return lb.closeErr
}
