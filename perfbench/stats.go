package main

import (
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// a p99 needs 1000 samples, a median 20.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// xs, and whether the sample supports it under the ten-beyond rule.
// xs is sorted in place.
func percentile(xs []float64, p int) (float64, bool) {
	n := len(xs)
	rank := (p*n + 99) / 100 // ceil(p·n/100), 1-based
	if n == 0 || rank < 1 || n-rank < minBeyond {
		return 0, false
	}
	sort.Float64s(xs)
	return xs[rank-1], true
}

// median of a small set of repeats (no ten-beyond rule: used for
// set-up times and per-run medians of repeated phases).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// opStats accumulates one operation type's outcomes.
type opStats struct {
	done []opSample // successful ops
	fail int        // typed errors
	bad  int        // bodies matching no legitimate version
}

// opSample is one successful op: how long it took (ns), the CPU time
// the whole process spent meanwhile (ns), and the user bytes it moved.
type opSample struct{ ns, cpu, bytes int64 }

func (s *opStats) success(start, end, cpu, bytes int64) {
	s.done = append(s.done, opSample{ns: end - start, cpu: cpu, bytes: bytes})
}

func (s *opStats) merge(o *opStats) {
	s.done = append(s.done, o.done...)
	s.fail += o.fail
	s.bad += o.bad
}

func (s *opStats) ok() int { return len(s.done) }

func (s *opStats) attempted() int { return s.ok() + s.fail + s.bad }

func (s *opStats) bytes() int64 {
	var n int64
	for _, o := range s.done {
		n += o.bytes
	}
	return n
}

// latencies returns every successful op's latency in ms.
func (s *opStats) latencies() []float64 {
	out := make([]float64, len(s.done))
	for i, o := range s.done {
		out[i] = float64(o.ns) / 1e6
	}
	return out
}

// cpuMs returns every successful op's process CPU time in ms.
func (s *opStats) cpuMs() []float64 {
	out := make([]float64, len(s.done))
	for i, o := range s.done {
		out[i] = float64(o.cpu) / 1e6
	}
	return out
}

// mbps is user bytes per second of summed op wall time, in MB/s.
func (s *opStats) mbps() float64 {
	var b, ns int64
	for _, o := range s.done {
		b += o.bytes
		ns += o.ns
	}
	if ns == 0 {
		return 0
	}
	return float64(b) * 1e3 / float64(ns)
}
