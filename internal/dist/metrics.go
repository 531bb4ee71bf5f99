package dist

import (
	"fmt"
	"strings"
)

// WorkerStats is a point-in-time snapshot of one worker's fleet counters.
type WorkerStats struct {
	Worker     string `json:"worker"`
	Healthy    bool   `json:"healthy"`
	InFlight   int    `json:"in_flight"`
	Dispatched int64  `json:"dispatched"`
	Succeeded  int64  `json:"succeeded"`
	Retried    int64  `json:"retried"`
	Hedged     int64  `json:"hedged"`
	Evicted    int64  `json:"evicted"`
	Readmitted int64  `json:"readmitted"`
}

// Stats snapshots every worker in registration order.
func (c *Coordinator) Stats() []WorkerStats {
	out := make([]WorkerStats, len(c.workers))
	for i, w := range c.workers {
		out[i] = WorkerStats{
			Worker:     w.url,
			Healthy:    w.healthy.Load(),
			InFlight:   w.sem.InUse(),
			Dispatched: w.dispatched.Load(),
			Succeeded:  w.succeeded.Load(),
			Retried:    w.retried.Load(),
			Hedged:     w.hedged.Load(),
			Evicted:    w.evicted.Load(),
			Readmitted: w.readmitted.Load(),
		}
	}
	return out
}

// RenderMetrics emits the fleet counters in the Prometheus text exposition
// format, one labelled series per worker; ndaserve appends it to the
// service's own /metrics block when running as a coordinator.
func (c *Coordinator) RenderMetrics() string {
	stats := c.Stats()
	var b strings.Builder
	series := func(name, help, typ string, value func(WorkerStats) string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, s := range stats {
			fmt.Fprintf(&b, "%s{worker=%q} %s\n", name, s.Worker, value(s))
		}
	}
	counter := func(name, help string, get func(WorkerStats) int64) {
		series(name, help, "counter", func(s WorkerStats) string { return fmt.Sprint(get(s)) })
	}
	counter("nda_dist_dispatched_total", "cell attempts dispatched to this worker", func(s WorkerStats) int64 { return s.Dispatched })
	counter("nda_dist_succeeded_total", "cell attempts this worker answered successfully", func(s WorkerStats) int64 { return s.Succeeded })
	counter("nda_dist_retried_total", "retry attempts dispatched to this worker", func(s WorkerStats) int64 { return s.Retried })
	counter("nda_dist_hedged_total", "hedge attempts dispatched to this worker", func(s WorkerStats) int64 { return s.Hedged })
	counter("nda_dist_evicted_total", "times this worker was evicted from the rotation", func(s WorkerStats) int64 { return s.Evicted })
	counter("nda_dist_readmitted_total", "times this worker was re-admitted after eviction", func(s WorkerStats) int64 { return s.Readmitted })
	series("nda_dist_inflight", "cells currently in flight to this worker (queue depth)", "gauge",
		func(s WorkerStats) string { return fmt.Sprint(s.InFlight) })
	series("nda_dist_healthy", "1 if the worker is in the dispatch rotation", "gauge", func(s WorkerStats) string {
		if s.Healthy {
			return "1"
		}
		return "0"
	})
	return b.String()
}
