package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/metrics"
	"time"
)

// Operation kinds, as the load generator and the gateway spans name them.
const (
	opPut   = "put"
	opGet   = "get"
	opRange = "range"
	opDel   = "delete"
)

// epoch is the zero of every timestamp the benchmark takes.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// loadClient is one closed-loop caller: it sends a request to the
// gateway, reads the whole reply into one reused buffer, stops the
// clock, and only then checks the bytes. Alongside the wall clock it
// reads the process's CPU time, so each op also records the CPU the
// whole system spent meanwhile; that is the op's cost only while this
// client is the only one running, as in bulk and degraded-repair.
type loadClient struct {
	hc    *http.Client
	base  string
	seed  uint64
	size  func(k int, v int64) int
	vs    *versions
	chk   *checker
	rec   *recorder // nil when untraced
	meter bool      // record per-op allocation deltas
	body  []byte    // reused reply buffer
	out   []byte    // reused payload buffer

	put, get, rng opStats
	del           opStats // deletes, not part of any latency figure
	alloc         map[string]*allocStats
	errs          []string
}

// allocStats is the heap allocation made while ops of one kind ran.
type allocStats struct {
	bytes, objects uint64
	ops            int
	userBytes      int64
}

func newLoadClient(c *benchCluster, seed uint64, vs *versions, size func(int, int64) int, maxSize int) *loadClient {
	return &loadClient{
		hc:    &http.Client{Transport: c.frontTransport},
		base:  c.base,
		seed:  seed,
		size:  size,
		vs:    vs,
		chk:   newChecker(seed, size, maxSize),
		rec:   c.rec,
		body:  make([]byte, maxSize+1),
		out:   make([]byte, maxSize),
		alloc: map[string]*allocStats{},
	}
}

// note keeps the first few error descriptions for the report.
func (c *loadClient) note(format string, args ...any) {
	if len(c.errs) < 8 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
}

func heapAllocs() (bytes, objects uint64) {
	s := make([]metrics.Sample, len(allocSamples))
	copy(s, allocSamples)
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// do sends one request and reads the reply body into c.body. It
// returns the status, the body length, the op's start and end, and the
// process CPU time spent in between.
func (c *loadClient) do(kind string, k int, body []byte, rangeHdr string) (status, n int, start, end, cpu int64, err error) {
	method, rd := http.MethodGet, io.Reader(http.NoBody)
	switch kind {
	case opPut:
		method, rd = http.MethodPut, bytes.NewReader(body)
	case opDel:
		method = http.MethodDelete
	}
	req, err := http.NewRequest(method, c.base+objectName(k), rd)
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	if rangeHdr != "" {
		req.Header.Set("Range", rangeHdr)
	}
	var b0, o0 uint64
	if c.meter {
		b0, o0 = heapAllocs()
	}
	cpu0 := cpuNow()
	start = now()
	resp, err := c.hc.Do(req)
	if err == nil {
		status = resp.StatusCode
		n, err = readInto(resp.Body, c.body)
		resp.Body.Close()
	}
	end = now()
	cpu = cpuNow() - cpu0
	if c.meter {
		b1, o1 := heapAllocs()
		a := c.alloc[kind]
		if a == nil {
			a = &allocStats{}
			c.alloc[kind] = a
		}
		a.bytes += b1 - b0
		a.objects += o1 - o0
		a.ops++
	}
	if c.rec != nil {
		ub := int64(n)
		if kind == opPut {
			ub = int64(len(body))
		}
		c.rec.add(span{Level: levelOp, Kind: kind, Object: objectName(k), Index: -1,
			Where: "client", Start: start, End: end, Bytes: ub, Status: status})
	}
	return status, n, start, end, cpu, err
}

var errBodyTooLarge = errors.New("reply body larger than any object version")

// readInto reads r to EOF into buf and returns the byte count.
func readInto(r io.Reader, buf []byte) (int, error) {
	n := 0
	for {
		if n == len(buf) {
			return n, errBodyTooLarge
		}
		m, err := r.Read(buf[n:])
		n += m
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}

// doPut writes a new version of key k.
func (c *loadClient) doPut(k int) {
	v := c.vs.beginPut(k)
	size := c.size(k, v)
	body := c.out[:size]
	fillPayload(body, c.seed, k, v)
	status, _, start, end, cpu, err := c.do(opPut, k, body, "")
	if err == nil && status != http.StatusCreated {
		err = fmt.Errorf("status %d", status)
	}
	c.vs.endPut(k, v, err == nil)
	if err != nil {
		c.put.fail++
		c.note("put %s v%d: %v", objectName(k), v, err)
		return
	}
	c.put.success(start, end, cpu, int64(size))
	if a := c.alloc[opPut]; a != nil {
		a.userBytes += int64(size)
	}
}

// doGet reads key k in full and checks it against every version that
// was acked or in flight while the read ran.
func (c *loadClient) doGet(k int) {
	tok := c.vs.beginRead(k)
	status, n, start, end, cpu, err := c.do(opGet, k, nil, "")
	cands := c.vs.endRead(tok)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d", status)
	}
	if err != nil {
		c.get.fail++
		c.note("get %s: %v", objectName(k), err)
		return
	}
	if !c.chk.matchFull(k, cands, c.body[:n]) {
		c.get.bad++
		c.note("get %s: %d-byte body matches none of versions %v", objectName(k), n, cands)
		return
	}
	c.get.success(start, end, cpu, int64(n))
	if a := c.alloc[opGet]; a != nil {
		a.userBytes += int64(n)
	}
}

// doRange reads bytes [off, off+n) of key k.
func (c *loadClient) doRange(k int, off, n int64) {
	tok := c.vs.beginRead(k)
	status, got, start, end, cpu, err := c.do(opRange, k, nil, fmt.Sprintf("bytes=%d-%d", off, off+n-1))
	cands := c.vs.endRead(tok)
	if err == nil && status != http.StatusPartialContent && status != http.StatusRequestedRangeNotSatisfiable {
		err = fmt.Errorf("status %d", status)
	}
	if err != nil {
		c.rng.fail++
		c.note("range %s [%d,+%d): %v", objectName(k), off, n, err)
		return
	}
	if !c.chk.matchRange(k, cands, off, n, status, c.body[:got]) {
		c.rng.bad++
		c.note("range %s [%d,+%d): status %d, %d-byte body matches none of versions %v",
			objectName(k), off, n, status, got, cands)
		return
	}
	c.rng.success(start, end, cpu, int64(got))
}

// doDelete removes key k, every version of it.
func (c *loadClient) doDelete(k int) {
	status, _, start, end, cpu, err := c.do(opDel, k, nil, "")
	if err == nil && status != http.StatusNoContent {
		err = fmt.Errorf("status %d", status)
	}
	if err != nil {
		c.del.fail++
		c.note("delete %s: %v", objectName(k), err)
		return
	}
	c.vs.deleted(k)
	c.del.success(start, end, cpu, 0)
}
