package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"

	"dialga/internal/obs"
)

// metric is one reported number. Base says what it was computed from
// (a sample count, or numerator and denominator), so every share and
// percentile can be judged by its support.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Base  string  `json:"base,omitempty"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit, base string) {
	m[name] = metric{Value: v, Unit: unit, Base: base}
}

// pct reports the p-th percentile of xs under the ten-beyond rule; an
// unsupported percentile reads 0 and says so in its base.
func (m metricSet) pct(name string, xs []float64, p int, unit string) {
	v, ok := percentile(xs, p)
	base := "n=" + strconv.Itoa(len(xs))
	if !ok {
		base += ", too few samples for p" + strconv.Itoa(p)
	}
	m.set(name, v, unit, base)
}

// ratio reports num/den, or 0 when den is 0.
func (m metricSet) ratio(name string, num, den float64, unit string) {
	v := 0.0
	if den != 0 {
		v = num / den
	}
	m.set(name, v, unit, strconv.FormatFloat(num, 'g', 10, 64)+"/"+strconv.FormatFloat(den, 'g', 10, 64))
}

// counterSnapshot holds the obs series the per-layer metrics read.
type counterSnapshot struct {
	c   map[string]uint64
	lat []uint64 // stream_stripe_latency_us buckets, both pipelines
	bnd []float64
}

var pipelines = []string{"encode", "decode"}

func snapshotCounters(reg *obs.Registry) counterSnapshot {
	s := counterSnapshot{c: map[string]uint64{}}
	get := func(name string, labels ...obs.Label) uint64 { return reg.Counter(name, "", labels...).Value() }
	s.c["reconstructed"] = get("stream_reconstructed_total", obs.Label{Key: "pipeline", Value: "decode"})
	s.c["hedged"] = get("shardio_hedged_stripes_total")
	s.c["ra_hits"] = get("shardio_readahead_hits_total")
	s.c["ra_useless"] = get("shardio_readahead_useless_total")
	for i := 0; i < numNodes; i++ {
		s.c["trips"] += get("shardio_breaker_trips_total", obs.Label{Key: "shard", Value: strconv.Itoa(i)})
	}
	s.c["repairs_ok"] = get("cluster_repairs_total", obs.Label{Key: "result", Value: "ok"})
	s.c["repair_failures"] = get("cluster_repair_failures_total")
	// The stream registers this histogram family with its bounds on the
	// first put of set-up; later lookups reuse those bounds.
	for _, p := range pipelines {
		h := reg.Histogram("stream_stripe_latency_us", "", nil, obs.Label{Key: "pipeline", Value: p})
		counts, _, _ := h.Snapshot()
		if s.lat == nil {
			s.lat = make([]uint64, len(counts))
			s.bnd = h.Bounds()
		}
		for i := range counts {
			s.lat[i] += counts[i]
		}
	}
	return s
}

// since is the change from b to s.
func (s counterSnapshot) since(b counterSnapshot) counterSnapshot {
	d := counterSnapshot{c: map[string]uint64{}, bnd: s.bnd, lat: make([]uint64, len(s.lat))}
	for k, v := range s.c {
		d.c[k] = v - b.c[k]
	}
	for i := range s.lat {
		d.lat[i] = s.lat[i] - b.lat[i]
	}
	return d
}

// histPercentile is the p-th percentile of a bucketed histogram at
// bucket resolution (the bucket's upper bound), under the ten-beyond
// rule. ok is false when the sample is too small or the rank falls in
// the overflow bucket.
func histPercentile(counts []uint64, bounds []float64, p int) (v float64, n uint64, ok bool) {
	for _, c := range counts {
		n += c
	}
	rank := (uint64(p)*n + 99) / 100
	if n == 0 || rank < 1 || n-rank < minBeyond {
		return 0, n, false
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			if i < len(bounds) {
				return bounds[i], n, true
			}
			return 0, n, false
		}
	}
	return 0, n, false
}

// peakRSSMiB is this process's VmHWM: the peak resident set of the
// load generator, gateway and all six nodes together.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, sc.Err()
}

// endToEnd computes the user-visible metrics of an untraced pass.
func endToEnd(o *outcome, rssMiB float64) metricSet {
	m := metricSet{}
	m.set("setup_s", median(o.setupS), "s", "median of "+strconv.Itoa(len(o.setupS))+" set-ups")
	m.set("put_mbps", o.put.mbps(), "MB/s", "n="+strconv.Itoa(o.put.ok()))
	m.set("get_mbps", o.get.mbps(), "MB/s", "n="+strconv.Itoa(o.get.ok()))
	m.pct("put_p50_ms", o.put.latencies(), 50, "ms")
	m.pct("put_p99_ms", o.put.latencies(), 99, "ms")
	m.pct("get_p50_ms", o.get.latencies(), 50, "ms")
	m.pct("get_p99_ms", o.get.latencies(), 99, "ms")
	m.pct("range_get_p50_ms", o.rng.latencies(), 50, "ms")
	m.pct("range_get_p99_ms", o.rng.latencies(), 99, "ms")
	m.ratio("ops_per_s", float64(o.put.ok()+o.get.ok()+o.rng.ok()+o.del.ok()), float64(o.phaseNs)/1e9, "ops/s")
	m.pct("put_cpu_ms", o.put.cpuMs(), 50, "ms")
	m.pct("get_cpu_ms", o.get.cpuMs(), 50, "ms")
	m.ratio("cpu_s_per_gb", float64(o.phaseCPU)/1e9, float64(o.put.bytes()+o.get.bytes()+o.rng.bytes())/1e9, "s/GB")
	if r := o.repair; r != nil {
		m.ratio("repair_mbps", float64(r.rebuiltBytes)/1e6, float64(r.scanNs+r.drainNs)/1e9, "MB/s")
		m.ratio("repair_cpu_s_per_gb", float64(r.cpuNs)/1e9, float64(r.rebuiltBytes)/1e9, "s/GB")
	}
	attempted, failed := o.tally()
	m.ratio("failed_op_ratio", float64(failed), float64(attempted), "ratio")
	m.ratio("stored_bytes_per_user_byte", float64(o.storedBytes), float64(o.liveBytes), "ratio")
	m.set("peak_rss_mib", rssMiB, "MiB", "VmHWM")
	return m
}

// tally counts every operation the run issued and those that failed:
// typed errors and bodies matching no legitimate version alike.
func (o *outcome) tally() (attempted, failed int) {
	for _, s := range []*opStats{&o.put, &o.get, &o.rng, &o.del, &o.verify} {
		attempted += s.attempted()
		failed += s.fail + s.bad
	}
	if r := o.repair; r != nil {
		attempted += r.rebuilt + r.failed
		failed += r.failed
	}
	return attempted, failed
}

// mismatches counts bodies that matched no legitimate version.
func (o *outcome) mismatches() int { return o.put.bad + o.get.bad + o.rng.bad + o.verify.bad }
