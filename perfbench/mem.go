package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// watchRSS samples the process's resident set every two milliseconds
// until the returned stop is called; stop returns the peak in MiB. The
// caller frees the previous phase's garbage first (debug.FreeOSMemory),
// so that the peak is the watched phase's own.
func watchRSS() (stop func() float64, err error) {
	page := int64(os.Getpagesize())
	peak, err := readRSS(page)
	if err != nil {
		return nil, err
	}
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if rss, err := readRSS(page); err == nil && rss > peak {
					peak = rss
				}
			}
		}
	}()
	return func() float64 {
		close(done)
		<-exited
		if rss, err := readRSS(page); err == nil && rss > peak {
			peak = rss
		}
		return float64(peak) / (1 << 20)
	}, nil
}

// readRSS reads the resident set size, in bytes, from /proc/self/statm.
func readRSS(page int64) (int64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0, fmt.Errorf("/proc/self/statm: unexpected contents %q", data)
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	return pages * page, err
}

// memStats are the runtime's allocation and GC counters.
type memStats struct{ allocMiB, gcCycles, pauseMs float64 }

func readMem() memStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memStats{float64(m.TotalAlloc) / (1 << 20), float64(m.NumGC), float64(m.PauseTotalNs) / 1e6}
}

func (m memStats) sub(o memStats) memStats {
	return memStats{m.allocMiB - o.allocMiB, m.gcCycles - o.gcCycles, m.pauseMs - o.pauseMs}
}
