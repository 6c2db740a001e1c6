package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"dialga/internal/cluster"
)

// Workload shapes. Every workload is closed-loop: a client sends its
// next request only once the previous reply is read and checked.
const (
	bulkObject = 16 << 20 // 16 stripes of 1 MiB
	bulkRing   = 8        // keys rewritten in turn, so disk stays bounded

	mixKeys      = 320 // see runSmallMixed for why not 1000
	mixClients   = 2
	mixZipfS     = 0.99
	mixMinSize   = 4 << 10
	mixMaxSize   = 1 << 20
	mixGetShare  = 0.60
	mixPutShare  = 0.25 // the remaining 0.15 are range gets
	mixRangeMin  = 4 << 10
	mixRangeMax  = 64 << 10
	mixRangeFrom = 256 << 10 // range gets target objects at least this large

	degObjects = 64
	degObject  = 4 << 20
)

// degradedPairs are the nodes the degraded-repair rounds stop, the same
// in every run. Object names, and so their placements, do not depend
// on the seed, but which two nodes are down decides how many data
// shards each get must rebuild: stopping n0 and n1 cost 9 ms of CPU per
// get, n4 and n5 12 ms, so seeded pairs moved a run's figures with the
// pairs it drew. Two of the five pairs share a zone and three span
// both, as 6 and 9 of the 15 possible pairs do.
var degradedPairs = [][2]int{{0, 1}, {2, 4}, {3, 5}, {0, 3}, {1, 4}}

// env is what one pass of a workload runs with.
type env struct {
	seed    uint64
	seconds time.Duration
	dir     string    // scratch space for this pass's clusters
	rec     *recorder // nil for an untraced pass
	reps    int       // set-ups measured (degraded-repair: rounds)
	meter   bool      // record per-op heap allocation
}

// outcome is everything a pass measured.
type outcome struct {
	setupS        []float64
	put, get, rng opStats
	del           opStats // deletes that keep the bulk ring bounded
	verify        opStats // end-of-run checking reads, not timed as load
	phaseStart    int64   // when the last measured phase began
	phaseEnd      int64   // and when it ended
	phaseNs       int64   // wall time of all measured phases
	phaseCPU      int64   // process CPU time of all measured phases, ns
	storedBytes   int64
	liveBytes     int64
	repair        *repairStats
	alloc         map[string]*allocStats
	errs          []string
	checks        []string        // end-of-run checks that failed
	counters      counterSnapshot // change over the last measured phase
	gcCycles      uint32
	gcPauseNs     uint64
	spans         []span
	samples       [][]byte // payloads for the isolated codec calls
}

// repairStats sums the repairs of every set-up of a pass.
type repairStats struct {
	scanNs, drainNs int64
	cpuNs           int64 // process CPU time of scan plus drain
	rebuilt, failed int
	rebuiltBytes    uint64
}

func (o *outcome) addClient(c *loadClient) {
	o.put.merge(&c.put)
	o.get.merge(&c.get)
	o.rng.merge(&c.rng)
	o.del.merge(&c.del)
	o.errs = append(o.errs, c.errs...)
	for k, a := range c.alloc {
		if o.alloc == nil {
			o.alloc = map[string]*allocStats{}
		}
		t := o.alloc[k]
		if t == nil {
			t = &allocStats{}
			o.alloc[k] = t
		}
		t.bytes += a.bytes
		t.objects += a.objects
		t.ops += a.ops
		t.userBytes += a.userBytes
	}
}

// setUp starts cluster number i and runs preload on it, and records
// how long both took.
//
// It, and each measured phase, starts from a freshly collected heap.
// Otherwise the garbage that earlier set-ups and rounds left behind
// decides when the next collections run, and with them the CPU time
// the puts of a degraded-repair round pay: without the collection it
// rose from round to round, by a third over five rounds.
func (e *env) setUp(o *outcome, i int, preload func(*benchCluster) error) (*benchCluster, error) {
	runtime.GC()
	start := now()
	c, err := startCluster(filepath.Join(e.dir, fmt.Sprintf("cluster-%d", i)), e.seed, e.rec)
	if err != nil {
		return nil, err
	}
	if err := preload(c); err != nil {
		c.close()
		return nil, err
	}
	o.setupS = append(o.setupS, float64(now()-start)/1e9)
	return c, nil
}

// setUpLast sets a cluster up e.reps times and keeps the last one,
// tearing the others down. preload must reset whatever workload state
// it builds, since it runs once per set-up.
func (e *env) setUpLast(o *outcome, preload func(*benchCluster) error) (*benchCluster, error) {
	var c *benchCluster
	for i := 0; i < e.reps; i++ {
		if c != nil {
			c.close()
		}
		var err error
		if c, err = e.setUp(o, i, preload); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// phase brackets a measured phase: it discards set-up spans, snapshots
// the counters, CPU time and GC state, and on end records the deltas.
type phase struct {
	c      *benchCluster
	start  int64
	cpu0   int64
	before counterSnapshot
	gc0    runtime.MemStats
}

func (e *env) begin(c *benchCluster) *phase {
	p := &phase{c: c}
	if e.rec != nil {
		e.rec.take()
	}
	runtime.GC()
	p.before = snapshotCounters(c.reg)
	runtime.ReadMemStats(&p.gc0)
	p.cpu0 = cpuNow()
	p.start = now()
	return p
}

// end adds the phase's time, CPU and GC deltas to o's totals; the
// counters and the span window are the last phase's (a traced pass has
// only one).
func (p *phase) end(o *outcome) {
	t, cpu := now(), cpuNow()
	o.phaseStart, o.phaseEnd = p.start, t
	o.phaseNs += t - p.start
	o.phaseCPU += cpu - p.cpu0
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	o.gcCycles += gc1.NumGC - p.gc0.NumGC
	o.gcPauseNs += gc1.PauseTotalNs - p.gc0.PauseTotalNs
	o.counters = snapshotCounters(p.c.reg).since(p.before)
}

// footprint records what the cluster stores for the data set set-up
// just preloaded. It is taken before the measured phase: afterwards
// the live bytes depend on which keys the run happened to overwrite.
func (o *outcome) footprint(c *benchCluster, live int64) error {
	stored, err := c.storedBytes()
	o.storedBytes, o.liveBytes = stored, live
	return err
}

// finish collects the spans, then tears the cluster down.
func (e *env) finish(o *outcome, c *benchCluster) {
	if e.rec != nil {
		o.spans = append(o.spans, e.rec.take()...)
	}
	c.close()
}

// runBulk: one client deletes a ring key, puts a new 16 MiB version of
// it and gets that version back, going round a ring of 8 keys.
//
// The old version is deleted before the put rather than overwritten by
// it: node.Store.Put renames a shard over the old one, and ext4 starts
// writeback of a file renamed over another, so overwrites made bulk
// write 24 MiB to the disk per put, and its figures followed the load
// of a disk shared with other tenants. Fresh files that are deleted
// seconds later, 192 MiB at most, are never written back.
func runBulk(e *env) (*outcome, error) {
	o := &outcome{}
	size := func(int, int64) int { return bulkObject }
	var vs *versions
	c, err := e.setUpLast(o, func(c *benchCluster) error {
		vs = newVersions(bulkRing)
		cl := newLoadClient(c, e.seed, vs, size, bulkObject)
		for k := 0; k < bulkRing; k++ {
			cl.doPut(k)
		}
		return cl.firstErr()
	})
	if err != nil {
		return nil, err
	}
	if err := o.footprint(c, vs.liveBytes(size)); err != nil {
		c.close()
		return nil, err
	}
	cl := newLoadClient(c, e.seed, vs, size, bulkObject)
	cl.meter = e.meter
	p := e.begin(c)
	deadline := now() + int64(e.seconds)
	for i := 0; now() < deadline; i++ {
		k := i % bulkRing
		cl.doDelete(k)
		cl.doPut(k)
		cl.doGet(k)
	}
	p.end(o)
	o.addClient(cl)
	o.samples = [][]byte{payload(e.seed, 0, 0, bulkObject)}
	e.finish(o, c)
	return o, nil
}

// firstErr turns the first noted failure into an error, for phases
// (preload) where any failure aborts the run.
func (c *loadClient) firstErr() error {
	if len(c.errs) > 0 {
		return fmt.Errorf("preload: %s", c.errs[0])
	}
	return nil
}

func payload(seed uint64, k int, v int64, n int) []byte {
	b := make([]byte, n)
	fillPayload(b, seed, k, v)
	return b
}

// mixSize is the size of version v of key k in small-mixed, log-uniform
// in [4 KiB, 1 MiB]. The preloaded versions are stratified: key k draws
// from its own 1/mixKeys slice of the range, the slices dealt out in a
// seeded order, so the preloaded bytes (and with them get throughput
// and stored bytes) barely depend on the seed. Later versions draw
// freely.
func mixSize(seed uint64) func(int, int64) int {
	slot := newRNG(seed, saltSize).perm(mixKeys)
	return func(k int, v int64) int {
		u := unit(derive(seed, saltSize, uint64(k), uint64(v)))
		if v == 0 {
			u = (float64(slot[k]) + u) / mixKeys
		}
		return logUniform(u, mixMinSize, mixMaxSize)
	}
}

// runSmallMixed: two clients run a 60% get / 25% put / 15% range-get
// mix over 320 preloaded keys drawn Zipf-skewed, reads and writes
// sharing the same hot keys.
//
// 320 keys, not 1000: every put is padded to a 1 MiB stripe, so each
// key holds 1.5 MiB of shards. At 1000 keys the set-ups of a run wrote
// 4.5 GB, past the kernel's background-writeback threshold (10% of
// available memory), and the writeback ran into the measured phase.
// 320 keys (480 MiB) stay under it.
//
// Each client owns half the keys, so no read races another client's
// overwrite of the same key: the gateway has no write generations, and
// such a read can silently return a mix of two versions' shards, which
// the checker flagged once in about 10,700 ops when clients shared keys.
func runSmallMixed(e *env) (*outcome, error) {
	o := &outcome{}
	size := mixSize(e.seed)
	z := newZipf(e.seed, mixKeys, mixZipfS)
	var vs *versions
	c, err := e.setUpLast(o, func(c *benchCluster) error {
		vs = newVersions(mixKeys)
		return parallel(mixClients, func(id int) error {
			cl := newLoadClient(c, e.seed, vs, size, mixMaxSize)
			for k := id; k < mixKeys; k += mixClients {
				cl.doPut(k)
			}
			return cl.firstErr()
		})
	})
	if err != nil {
		return nil, err
	}
	if err := o.footprint(c, vs.liveBytes(size)); err != nil {
		c.close()
		return nil, err
	}
	p := e.begin(c)
	clients := runMix(c, e.seed, 0, vs, z, mixClients, int64(e.seconds), false)
	p.end(o)
	for _, cl := range clients {
		o.addClient(cl)
	}
	if e.meter {
		// Two clients' allocations overlap in time; measure the heap
		// cost per op on a short single-client run of the same mix.
		o.alloc = nil
		for _, cl := range runMix(c, e.seed, 1, vs, z, 1, int64(2*time.Second), true) {
			for k, a := range cl.alloc {
				if o.alloc == nil {
					o.alloc = map[string]*allocStats{}
				}
				o.alloc[k] = a
			}
			o.errs = append(o.errs, cl.errs...)
			o.verify.merge(&cl.put)
			o.verify.merge(&cl.get)
			o.verify.merge(&cl.rng)
		}
	}
	for i := 0; i < 16; i++ {
		o.samples = append(o.samples, payload(e.seed, i, 0, size(i, 0)))
	}
	e.finish(o, c)
	return o, nil
}

// runMix runs the small-mixed op loop on n clients for d nanoseconds.
// stream selects the op sequence drawn from the seed.
func runMix(c *benchCluster, seed, stream uint64, vs *versions, z *zipf, n int, d int64, meter bool) []*loadClient {
	size := mixSize(seed)
	clients := make([]*loadClient, n)
	deadline := now() + d
	var wg sync.WaitGroup
	for id := range clients {
		cl := newLoadClient(c, seed, vs, size, mixMaxSize)
		cl.meter = meter
		clients[id] = cl
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := newRNG(seed, saltClient, stream, uint64(id))
			// A client works on its own keys: the drawn key, or its
			// neighbour when another client owns the drawn one.
			own := func(k int) int { return k - k%n + id }
			for now() < deadline {
				u := r.float()
				switch {
				case u < mixGetShare:
					cl.doGet(own(z.draw(r)))
				case u < mixGetShare+mixPutShare:
					cl.doPut(own(z.draw(r)))
				default:
					k, ok := drawLarge(r, z, vs, size, own)
					if !ok {
						cl.doGet(own(z.draw(r)))
						continue
					}
					objSize := int64(size(k, vs.current(k)))
					length := int64(mixRangeMin + r.intn(mixRangeMax-mixRangeMin+1))
					off := int64(r.intn(int(objSize-length) + 1))
					cl.doRange(k, off, length)
				}
			}
		}(id)
	}
	wg.Wait()
	return clients
}

// drawLarge draws Zipf keys until one whose current version is at
// least mixRangeFrom bytes.
func drawLarge(r *rng, z *zipf, vs *versions, size func(int, int64) int, own func(int) int) (int, bool) {
	for try := 0; try < 64; try++ {
		k := own(z.draw(r))
		if v := vs.current(k); v >= 0 && size(k, v) >= mixRangeFrom {
			return k, true
		}
	}
	return 0, false
}

// parallel runs f(0..n-1) concurrently and returns the first error.
func parallel(n int, f func(id int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			errs[id] = f(id)
		}(id)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runDegradedRepair runs e.reps rounds. Each sets a cluster up with 64
// objects of 4 MiB (the puts this workload times), stops two nodes,
// runs full passes of degraded gets for its share of the measured
// time, brings both nodes back empty, rebuilds everything with the
// repairer, checks that a rescan finds nothing left and that a healthy
// pass reads every object byte-exact, and tears the cluster down.
//
// A round lasts well under the kernel's 30 s dirty-page expiry, so the
// preloaded shards are deleted before they are ever written back and
// the figures do not follow the load of a shared disk; each round also
// stops another pair of nodes.
func runDegradedRepair(e *env) (*outcome, error) {
	o := &outcome{repair: &repairStats{}}
	// A bound on the rebuilds, so a wedged cluster cannot hold the run
	// past its time limit.
	ctx, cancel := context.WithTimeout(context.Background(), e.seconds+60*time.Second)
	defer cancel()
	for round := 0; round < e.reps; round++ {
		if err := degradedRound(ctx, e, o, round); err != nil {
			return nil, err
		}
	}
	o.samples = [][]byte{payload(e.seed, 0, 0, degObject)}
	return o, nil
}

func degradedRound(ctx context.Context, e *env, o *outcome, round int) error {
	size := func(int, int64) int { return degObject }
	var vs *versions
	c, err := e.setUp(o, round, func(c *benchCluster) error {
		vs = newVersions(degObjects)
		cl := newLoadClient(c, e.seed, vs, size, degObject)
		for k := 0; k < degObjects; k++ {
			cl.doPut(k)
		}
		// The preload is this workload's put load.
		o.put.merge(&cl.put)
		return cl.firstErr()
	})
	if err != nil {
		return err
	}
	defer e.finish(o, c)
	if round == 0 {
		if err := o.footprint(c, vs.liveBytes(size)); err != nil {
			return err
		}
	}
	pair := degradedPairs[round%len(degradedPairs)]
	a, b := pair[0], pair[1]
	c.stopNode(a)
	c.stopNode(b)

	cl := newLoadClient(c, e.seed, vs, size, degObject)
	cl.meter = e.meter
	p := e.begin(c)
	deadline := now() + int64(e.seconds)/int64(e.reps)
	for pass := 0; pass == 0 || now() < deadline; pass++ {
		for k := 0; k < degObjects; k++ {
			cl.doGet(k)
		}
	}
	p.end(o)
	o.addClient(cl)

	for _, i := range []int{a, b} {
		if err := c.replaceNode(i); err != nil {
			return err
		}
	}
	// The repair queue as dialga-node builds it: default scheduling,
	// unpaced.
	r := cluster.NewRepairerOpts(c.gw, nil, c.reg, cluster.RepairerOptions{})
	rep := o.repair
	before := c.reg.Counter("cluster_repair_bytes_total", "").Value()
	cpu0, t0 := cpuNow(), now()
	if _, err := r.ScanOnce(ctx); err != nil {
		return fmt.Errorf("repair scan: %w", err)
	}
	t1 := now()
	rebuilt, failed := r.DrainOnce(ctx)
	t2, cpu2 := now(), cpuNow()
	rep.scanNs += t1 - t0
	rep.drainNs += t2 - t1
	rep.cpuNs += cpu2 - cpu0
	rep.rebuilt += rebuilt
	rep.failed += failed
	rep.rebuiltBytes += c.reg.Counter("cluster_repair_bytes_total", "").Value() - before
	if failed > 0 {
		o.checks = append(o.checks, fmt.Sprintf("round %d: %d shard rebuilds failed", round, failed))
	}
	if n, err := r.ScanOnce(ctx); err != nil || n != 0 {
		o.checks = append(o.checks, fmt.Sprintf("round %d: rescan after repair enqueued %d (err %v), want 0", round, n, err))
	}
	// One healthy pass: every object byte-exact with all six nodes up.
	vc := newLoadClient(c, e.seed, vs, size, degObject)
	for k := 0; k < degObjects; k++ {
		vc.doGet(k)
	}
	o.verify.merge(&vc.get)
	o.errs = append(o.errs, vc.errs...)
	return nil
}

// scratchDir makes a fresh directory for one pass under the checkout's
// build directory.
func scratchDir(root, name string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, name+"-")
}
