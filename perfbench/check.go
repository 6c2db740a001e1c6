package main

import (
	"bytes"
	"net/http"
	"sync"
)

// versions tracks, for every key, the latest acknowledged version and
// the versions whose put is still in flight, so each read can be
// checked against exactly the versions it may legitimately return:
// those acked or in flight at any moment while the read ran.
type versions struct {
	mu   sync.Mutex
	keys []keyVersions
}

type keyVersions struct {
	acked int64   // latest acked version; -1 before the first ack
	next  int64   // next version number to hand out
	open  []int64 // puts started and not yet finished
	// lost holds versions whose put failed: the gateway may have left
	// some of their shards behind, so a read may still see them.
	lost []int64
}

func newVersions(n int) *versions {
	vs := &versions{keys: make([]keyVersions, n)}
	for i := range vs.keys {
		vs.keys[i].acked = -1
	}
	return vs
}

// beginPut hands out the next version of key k and marks it in flight.
func (vs *versions) beginPut(k int) int64 {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	kv := &vs.keys[k]
	v := kv.next
	kv.next++
	kv.open = append(kv.open, v)
	return v
}

// endPut marks version v of key k finished, acked or not.
func (vs *versions) endPut(k int, v int64, acked bool) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	kv := &vs.keys[k]
	for i, o := range kv.open {
		if o == v {
			kv.open = append(kv.open[:i], kv.open[i+1:]...)
			break
		}
	}
	if acked {
		kv.acked = v
	} else {
		kv.lost = append(kv.lost, v)
	}
}

// deleted records that key k was deleted: no version of it is live,
// including any a failed put may have left behind.
func (vs *versions) deleted(k int) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	kv := &vs.keys[k]
	kv.acked, kv.lost = -1, nil
}

// current returns the latest acked version of key k (-1 if none).
func (vs *versions) current(k int) int64 {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	return vs.keys[k].acked
}

// liveBytes is the user bytes of every key's latest acked version.
func (vs *versions) liveBytes(size func(k int, v int64) int) int64 {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	var n int64
	for k, kv := range vs.keys {
		if kv.acked >= 0 {
			n += int64(size(k, kv.acked))
		}
	}
	return n
}

// readToken is a read's view of one key, taken when the read starts.
type readToken struct {
	k     int
	cands []int64
	hi    int64 // versions numbered >= hi started during the read
}

// beginRead snapshots the versions a read of key k starting now may see.
func (vs *versions) beginRead(k int) readToken {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	kv := &vs.keys[k]
	t := readToken{k: k, hi: kv.next}
	if kv.acked >= 0 {
		t.cands = append(t.cands, kv.acked)
	}
	t.cands = append(t.cands, kv.open...)
	t.cands = append(t.cands, kv.lost...)
	return t
}

// endRead adds the versions whose put started while the read ran and
// returns every version the read may legitimately have returned.
func (vs *versions) endRead(t readToken) []int64 {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	for v := t.hi; v < vs.keys[t.k].next; v++ {
		t.cands = append(t.cands, v)
	}
	return t.cands
}

// checker regenerates expected object bytes and compares read bodies
// against them.
type checker struct {
	seed    uint64
	size    func(k int, v int64) int
	scratch []byte
}

func newChecker(seed uint64, size func(k int, v int64) int, maxSize int) *checker {
	return &checker{seed: seed, size: size, scratch: make([]byte, maxSize)}
}

// expect regenerates the first n bytes of version v of key k.
func (c *checker) expect(k int, v int64, n int) []byte {
	b := c.scratch[:n]
	fillPayload(b, c.seed, k, v)
	return b
}

// matchFull reports whether body is exactly one of the candidate
// versions of key k, in full.
func (c *checker) matchFull(k int, cands []int64, body []byte) bool {
	for _, v := range cands {
		if c.size(k, v) == len(body) && bytes.Equal(c.expect(k, v, len(body)), body) {
			return true
		}
	}
	return false
}

// matchRange reports whether a response to "Range: bytes=off-(off+n-1)"
// is exactly what one of the candidate versions yields: the byte window
// clipped to that version's size with status 206, or 416 when the
// window starts past its end.
func (c *checker) matchRange(k int, cands []int64, off, n int64, status int, body []byte) bool {
	for _, v := range cands {
		size := int64(c.size(k, v))
		if off >= size {
			if status == http.StatusRequestedRangeNotSatisfiable {
				return true
			}
			continue
		}
		end := min(off+n, size)
		if status == http.StatusPartialContent && int64(len(body)) == end-off &&
			bytes.Equal(c.expect(k, v, int(end))[off:end], body) {
			return true
		}
	}
	return false
}
