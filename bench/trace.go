package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the public function it calls.
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id,omitempty"` // cell, program or request
	Parent int    `json:"parent"`       // index of the causing span; -1 for a root
	Start  int64  `json:"start_ns"`     // since the tracer was made
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index, the parent of any span it causes.
func (t *tracer) begin(name, id string, parent int) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: now})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// call records f as a span; on a nil tracer it only calls f.
func (t *tracer) call(name, id string, parent int, f func() error) error {
	if t == nil {
		return f()
	}
	i := t.begin(name, id, parent)
	defer t.end(i)
	return f()
}

// seconds returns the durations of every span with the given name.
func (t *tracer) seconds(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start).Seconds())
		}
	}
	return out
}

// busy sums the durations of the named spans.
func (t *tracer) busy(names ...string) float64 {
	var total float64
	for _, n := range names {
		total += sum(t.seconds(n))
	}
	return total
}

// spanStat is one span name's totals: its self time is its duration minus
// the part its child spans cover.
type spanStat struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Busy  float64 `json:"busy_s"`
	Self  float64 `json:"self_s"`
}

func (t *tracer) stats() []spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*spanStat{}
	var names []string
	for i, s := range t.spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			byName[s.Name] = st
			names = append(names, s.Name)
		}
		st.Count++
		st.Busy += time.Duration(s.End - s.Start).Seconds()
		st.Self += time.Duration(s.End - s.Start - children[i]).Seconds()
	}
	out := make([]spanStat, 0, len(names))
	for _, n := range names {
		out = append(out, *byName[n])
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Self > out[b].Self })
	return out
}

// traceFile is what a traced run writes to trace-<workload>.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Metrics  map[string]float64 `json:"metrics"`
	Detail   map[string]float64 `json:"detail"`
	Layers   []spanStat         `json:"layers"`
	Spans    []span             `json:"spans"`
}

func writeTrace(path string, f *traceFile) error {
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// printBreakdown writes each span name's self time and the detail numbers.
func printBreakdown(w io.Writer, layers []spanStat, detail map[string]float64) {
	fmt.Fprintf(w, "%-22s %8s %10s %10s\n", "span", "count", "busy_s", "self_s")
	for _, l := range layers {
		fmt.Fprintf(w, "%-22s %8d %10.4f %10.4f\n", l.Name, l.Count, l.Busy, l.Self)
	}
	for _, k := range sortedKeys(detail) {
		fmt.Fprintf(w, "%-34s %.6g\n", k, detail[k])
	}
}

// runtimeSample is a reading of the Go runtime's allocation and CPU counters.
type runtimeSample struct {
	allocBytes, gcCPU, totalCPU float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeSample{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

func (a runtimeSample) minus(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes - b.allocBytes, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func (a runtimeSample) plus(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes + b.allocBytes, a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU}
}

// runtimeMetrics fills the runtime.* layer metrics for the ops whose
// runtime counters changed by delta.
func runtimeMetrics(m map[string]float64, delta runtimeSample, ops int64) {
	if ops > 0 {
		m["runtime.alloc_kb_per_op"] = delta.allocBytes / 1024 / float64(ops)
	}
	if delta.totalCPU > 0 {
		m["runtime.gc_cpu_share"] = delta.gcCPU / delta.totalCPU
	}
	m["runtime.peak_rss_mb"] = peakRSSMB()
}

// peakRSSMB is the process's maximum resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// percentile is the nearest-rank q-th percentile (0 < q <= 1).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
