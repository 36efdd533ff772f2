package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// rssSampleEvery is how often rssSampler reads the resident set size.
const rssSampleEvery = 2 * time.Millisecond

// rssSampler tracks the peak resident set size of the process between
// resets by sampling /proc/self/statm. The kernel's own high-water mark
// (getrusage) cannot be reset, so it would report the largest spike of
// the whole run rather than a typical iteration's peak. Sampling does
// not allocate, so it does not disturb the allocation counts.
type rssSampler struct {
	f    *os.File
	buf  [64]byte
	peak atomic.Int64
	stop chan struct{}
	done sync.WaitGroup
}

func startRSSSampler() (*rssSampler, error) {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return nil, fmt.Errorf("resident set size: %w", err)
	}
	s := &rssSampler{f: f, stop: make(chan struct{})}
	if _, err := s.resident(); err != nil {
		f.Close()
		return nil, err
	}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		t := time.NewTicker(rssSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			rss, err := s.resident()
			if err != nil {
				continue
			}
			for cur := s.peak.Load(); rss > cur && !s.peak.CompareAndSwap(cur, rss); cur = s.peak.Load() {
			}
		}
	}()
	return s, nil
}

// resident reads the resident set size in bytes: the second field of
// statm, in pages.
func (s *rssSampler) resident() (int64, error) {
	n, err := s.f.ReadAt(s.buf[:], 0)
	if n == 0 {
		return 0, fmt.Errorf("read /proc/self/statm: %v", err)
	}
	i := 0
	for i < n && s.buf[i] != ' ' {
		i++
	}
	var pages int64
	for i++; i < n && s.buf[i] >= '0' && s.buf[i] <= '9'; i++ {
		pages = pages*10 + int64(s.buf[i]-'0')
	}
	return pages * int64(os.Getpagesize()), nil
}

// reset starts a new peak; the next sample sets it.
func (s *rssSampler) reset() { s.peak.Store(0) }

// peakMiB is the largest sample since the last reset.
func (s *rssSampler) peakMiB() float64 { return float64(s.peak.Load()) / (1 << 20) }

func (s *rssSampler) close() {
	close(s.stop)
	s.done.Wait()
	s.f.Close()
}
