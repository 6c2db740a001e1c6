package main

import (
	"strconv"

	"dialga/internal/node"
)

// spanSets holds the measured phase's foreground spans by level.
// Repair traffic is kept apart: it belongs to no client op.
type spanSets struct {
	ops, gws, hops, nodes []span
	repairHops            []span
}

func splitSpans(o *outcome) spanSets {
	var s spanSets
	lo, hi := o.phaseStart, o.phaseEnd
	for _, sp := range o.spans {
		if sp.Class == node.ClassRepair {
			if sp.Level == levelHop {
				s.repairHops = append(s.repairHops, sp)
			}
			continue
		}
		if sp.Start < lo || sp.Start > hi {
			continue
		}
		switch sp.Level {
		case levelOp:
			s.ops = append(s.ops, sp)
		case levelGateway:
			s.gws = append(s.gws, sp)
		case levelHop:
			s.hops = append(s.hops, sp)
		case levelNode:
			s.nodes = append(s.nodes, sp)
		}
	}
	return s
}

// hopKinds are the shard-API routes each object op fans out into.
var hopKinds = map[string]map[string]bool{
	opPut:   {"shard_put": true, "shard_delete": true},
	opGet:   {"shard_get": true},
	opRange: {"shard_get": true, "stat": true},
	opDel:   {"shard_delete": true},
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// perLayer computes the traced pass's per-layer metrics; micro holds
// the isolated codec measurements.
func perLayer(o *outcome, micro metricSet) metricSet {
	m := metricSet{}
	for k, v := range micro {
		m[k] = v
	}
	s := splitSpans(o)

	// Gateway handler spans, their node hops, and the ops around them.
	hopsOf, _ := matchChildren(s.gws, s.hops, func(p, c span) bool { return hopKinds[p.Kind][c.Kind] })
	gwOf, _ := matchChildren(s.ops, s.gws, func(p, c span) bool { return p.Kind == c.Kind })
	nodeOf, _ := matchChildren(s.hops, s.nodes, func(p, c span) bool { return p.Kind == c.Kind && p.Index == c.Index })

	handler := map[string][]float64{}
	self := map[string][]float64{}
	requests := map[string]int{}
	wire := map[string]int64{}
	gwCount := map[string]int{}
	retried := 0
	for i, g := range s.gws {
		handler[g.Kind] = append(handler[g.Kind], ms(g.dur()))
		children := pick(s.hops, hopsOf[i])
		self[g.Kind] = append(self[g.Kind], ms(selfTime(g, children)))
		gwCount[g.Kind]++
		requests[g.Kind] += len(children)
		seen := map[string]bool{}
		for _, h := range children {
			wire[g.Kind] += h.ReqBytes + h.RespBytes
			key := h.Kind + "/" + strconv.Itoa(h.Index)
			if seen[key] {
				retried++
			}
			seen[key] = true
		}
	}
	m.pct("cluster.put_handler_p50_ms", handler[opPut], 50, "ms")
	m.pct("cluster.get_handler_p50_ms", handler[opGet], 50, "ms")
	m.pct("cluster.range_handler_p50_ms", handler[opRange], 50, "ms")
	m.pct("cluster.put_self_p50_ms", self[opPut], 50, "ms")
	m.pct("cluster.get_self_p50_ms", self[opGet], 50, "ms")

	// Front: what the client saw beyond the gateway handler, and how
	// much of each op's wall time the handler and hop spans cover.
	var front []float64
	covered := map[string]int64{}
	wall := map[string]int64{}
	for i, op := range s.ops {
		kind := op.Kind
		if kind == opRange {
			kind = opGet
		}
		wall[kind] += op.dur()
		if len(gwOf[i]) != 1 {
			continue
		}
		gi := gwOf[i][0]
		g := s.gws[gi]
		front = append(front, ms(op.dur()-g.dur()))
		ivs := []interval{g.iv()}
		for _, h := range pick(s.hops, hopsOf[gi]) {
			ivs = append(ivs, h.iv())
		}
		covered[kind] += unionWithin(op.iv(), ivs)
	}
	m.pct("cluster.front_http_p50_ms", front, 50, "ms")
	m.ratio("trace.put_coverage_ratio", float64(covered[opPut]), float64(wall[opPut]), "ratio")
	m.ratio("trace.get_coverage_ratio", float64(covered[opGet]), float64(wall[opGet]), "ratio")
	if enc := micro["stream.encode_mibps"].Value; enc > 0 {
		m.ratio("cluster.put_over_encode_ratio", o.put.mbps()*1e6, enc*(1<<20), "ratio")
	} else {
		m.set("cluster.put_over_encode_ratio", 0, "ratio", "no encode measurement")
	}

	// Node hops, client side.
	m.ratio("node.requests_per_put", float64(requests[opPut]), float64(gwCount[opPut]), "count")
	m.ratio("node.requests_per_get", float64(requests[opGet]), float64(gwCount[opGet]), "count")
	m.ratio("node.requests_per_range_get", float64(requests[opRange]), float64(gwCount[opRange]), "count")
	m.ratio("node.put_wire_bytes_per_user_byte", float64(wire[opPut]), float64(o.put.bytes()), "ratio")
	m.ratio("node.get_wire_bytes_per_user_byte", float64(wire[opGet]), float64(o.get.bytes()), "ratio")
	m.ratio("node.range_wire_bytes_per_user_byte", float64(wire[opRange]), float64(o.rng.bytes()), "ratio")
	hopLat := map[string][]float64{}
	failed := 0
	var waits []float64
	for i, h := range s.hops {
		hopLat[h.Kind] = append(hopLat[h.Kind], ms(h.dur()))
		if h.Status == 0 || h.Status >= 400 {
			failed++
		}
		if h.Kind == "shard_put" && len(nodeOf[i]) == 1 {
			waits = append(waits, ms(h.dur()-s.nodes[nodeOf[i][0]].dur()))
		}
	}
	m.pct("node.put_hop_p50_ms", hopLat["shard_put"], 50, "ms")
	m.pct("node.put_hop_p99_ms", hopLat["shard_put"], 99, "ms")
	m.pct("node.get_hop_p50_ms", hopLat["shard_get"], 50, "ms")
	m.pct("node.get_hop_p99_ms", hopLat["shard_get"], 99, "ms")
	m.pct("node.stat_hop_p50_ms", hopLat["stat"], 50, "ms")
	m.set("node.failed_hops", float64(failed), "count", "of "+strconv.Itoa(len(s.hops))+" hops")
	m.set("node.retried_hops", float64(retried), "count", "of "+strconv.Itoa(len(s.hops))+" hops")

	// Node handlers, server side.
	busy := map[string][]float64{}
	var busyTotal int64
	for _, n := range s.nodes {
		busy[n.Kind] = append(busy[n.Kind], ms(n.dur()))
		busyTotal += n.dur()
	}
	m.pct("node.put_busy_p50_ms", busy["shard_put"], 50, "ms")
	m.pct("node.get_busy_p50_ms", busy["shard_get"], 50, "ms")
	m.set("node.busy_s_total", float64(busyTotal)/1e9, "s", "n="+strconv.Itoa(len(s.nodes))+" handler spans")
	m.pct("node.put_transport_wait_p50_ms", waits, 50, "ms")

	// Stream and shardio counters over the measured phase.
	d := o.counters
	if v, n, ok := histPercentile(d.lat, d.bnd, 50); ok {
		m.set("stream.stripe_p50_us", v, "us", "n="+strconv.FormatUint(n, 10)+", bucket bound")
	} else {
		m.set("stream.stripe_p50_us", 0, "us", "n="+strconv.FormatUint(n, 10)+", too few samples")
	}
	if v, n, ok := histPercentile(d.lat, d.bnd, 99); ok {
		m.set("stream.stripe_p99_us", v, "us", "n="+strconv.FormatUint(n, 10)+", bucket bound")
	} else {
		m.set("stream.stripe_p99_us", 0, "us", "n="+strconv.FormatUint(n, 10)+", too few samples or overflow")
	}
	gets := float64(o.get.attempted() + o.rng.attempted())
	m.ratio("stream.reconstructed_per_get", float64(d.c["reconstructed"]), gets, "count")
	m.set("shardio.hedged_stripes", float64(d.c["hedged"]), "count", "")
	m.set("shardio.breaker_trips", float64(d.c["trips"]), "count", "")
	m.set("shardio.readahead_hits", float64(d.c["ra_hits"]), "count", "")
	m.set("shardio.readahead_useless", float64(d.c["ra_useless"]), "count", "")
	m.ratio("shardio.readahead_useful_ratio", float64(d.c["ra_hits"]), float64(d.c["ra_hits"]+d.c["ra_useless"]), "ratio")

	// Repairer.
	var scan, drain float64
	var rebuilt, failures int
	var rebuiltBytes uint64
	if r := o.repair; r != nil {
		scan, drain = float64(r.scanNs)/1e9, float64(r.drainNs)/1e9
		rebuilt, failures, rebuiltBytes = r.rebuilt, r.failed, r.rebuiltBytes
	}
	var repairRead int64
	for _, h := range s.repairHops {
		if h.Kind == "shard_get" {
			repairRead += h.RespBytes
		}
	}
	m.set("cluster.repair_scan_s", scan, "s", "")
	m.set("cluster.repair_drain_s", drain, "s", "")
	m.set("cluster.repair_shards_rebuilt", float64(rebuilt), "count", "")
	m.set("cluster.repair_failures", float64(failures), "count", "")
	m.ratio("cluster.repair_read_bytes_per_rebuilt_byte", float64(repairRead), float64(rebuiltBytes), "ratio")

	// Go runtime.
	put, get := o.alloc[opPut], o.alloc[opGet]
	if put == nil {
		put = &allocStats{}
	}
	if get == nil {
		get = &allocStats{}
	}
	var objs uint64
	var nops int
	for _, a := range o.alloc {
		objs += a.objects
		nops += a.ops
	}
	m.ratio("runtime.put_alloc_bytes_per_user_byte", float64(put.bytes), float64(put.userBytes), "ratio")
	m.ratio("runtime.get_alloc_bytes_per_user_byte", float64(get.bytes), float64(get.userBytes), "ratio")
	m.ratio("runtime.mallocs_per_op", float64(objs), float64(nops), "count")
	m.set("runtime.gc_cycles", float64(o.gcCycles), "count", "")
	m.set("runtime.gc_pause_ms", float64(o.gcPauseNs)/1e6, "ms", "")
	return m
}

func pick(spans []span, idx []int) []span {
	out := make([]span, len(idx))
	for i, j := range idx {
		out[i] = spans[j]
	}
	return out
}
