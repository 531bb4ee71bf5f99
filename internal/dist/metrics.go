package dist

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
