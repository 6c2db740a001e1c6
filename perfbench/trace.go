package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"dialga/internal/node"
)

// Span levels, outermost first: a load-generator op contains one
// gateway handler span, which contains the node hops the gateway made
// for that object, each of which contains one node handler span.
const (
	levelOp      = "op"
	levelGateway = "gateway"
	levelHop     = "hop"
	levelNode    = "node"
)

// span is one timed interval at a layer boundary. Times are
// nanoseconds since the benchmark's epoch (see now).
type span struct {
	Level  string `json:"level"`
	Kind   string `json:"kind"`   // op kind (put/get/range) or shard-API route
	Object string `json:"object"` // object name, "" for unscoped routes
	Index  int    `json:"index"`  // shard index, -1 when not a shard route
	Where  string `json:"where"`  // node id, "gw", or "client"
	Class  string `json:"class,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Bytes is user payload bytes for ops; for hops the request and
	// response body bytes that crossed the wire.
	Bytes     int64 `json:"bytes,omitempty"`
	ReqBytes  int64 `json:"req_bytes,omitempty"`
	RespBytes int64 `json:"resp_bytes,omitempty"`
	Status    int   `json:"status"`
}

func (s span) dur() int64 { return s.End - s.Start }

func (s span) iv() interval { return interval{s.Start, s.End} }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the spans recorded so far and starts a fresh list.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.spans
	r.spans = nil
	return s
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseRoute splits a shard-API or object-API path into its route,
// object and shard index. Shard routes are /v1/{shard,stat,scrub}/
// {object}/{idx}; object routes are /v1/object/{object}.
func parseRoute(method, path string) (kind, object string, idx int) {
	parts := strings.Split(strings.TrimPrefix(path, "/"), "/")
	idx = -1
	if len(parts) < 2 || parts[0] != "v1" {
		return strings.ToLower(method) + " " + path, "", idx
	}
	kind = parts[1]
	if len(parts) >= 3 {
		object = parts[2]
	}
	if len(parts) >= 4 {
		if n, err := strconv.Atoi(parts[3]); err == nil {
			idx = n
		}
	}
	if kind == "shard" {
		kind = "shard_" + strings.ToLower(method)
	}
	return kind, object, idx
}

// wrapHandler records one span per request served by h.
func (r *recorder) wrapHandler(level, where string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		s := span{Level: level, Where: where, Class: req.Header.Get(node.ClassHeader)}
		s.Kind, s.Object, s.Index = parseRoute(req.Method, req.URL.Path)
		if level == levelGateway {
			s.Kind = gatewayKind(req)
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		s.Start = now()
		defer func() {
			s.End = now()
			s.Status = sw.status
			r.add(s)
		}()
		h.ServeHTTP(sw, req)
	})
}

// gatewayKind names a gateway request the way the load generator
// names its ops.
func gatewayKind(req *http.Request) string {
	switch {
	case req.Method == http.MethodPut:
		return opPut
	case req.Method == http.MethodGet && req.Header.Get("Range") != "":
		return opRange
	case req.Method == http.MethodGet:
		return opGet
	}
	return strings.ToLower(req.Method)
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// ReadFrom keeps the server's own io.ReaderFrom (sendfile for a node
// streaming a shard file) on the path, so tracing does not turn it
// into a buffered copy.
func (w *statusWriter) ReadFrom(r io.Reader) (int64, error) {
	return io.Copy(w.ResponseWriter, r)
}

// hopTransport records one span per gateway→node request, from the
// moment the request is handed to the transport until its response
// body is drained or closed, with the body bytes in both directions.
type hopTransport struct {
	base http.RoundTripper
	rec  *recorder
}

func (t *hopTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	s := span{Level: levelHop, Where: req.URL.Host, Class: req.Header.Get(node.ClassHeader)}
	s.Kind, s.Object, s.Index = parseRoute(req.Method, req.URL.Path)
	sent := new(atomic.Int64)
	if req.Body != nil && req.Body != http.NoBody {
		req = req.Clone(req.Context())
		req.Body = &countingBody{rc: req.Body, n: sent}
	}
	s.Start = now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		s.End = now()
		s.ReqBytes = sent.Load()
		t.rec.add(s)
		return nil, err
	}
	s.Status = resp.StatusCode
	resp.Body = &hopBody{rc: resp.Body, rec: t.rec, s: s, sent: sent}
	return resp, nil
}

type countingBody struct {
	rc io.ReadCloser
	n  *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (b *countingBody) Close() error { return b.rc.Close() }

// hopBody ends its hop's span at EOF or Close, whichever comes first.
type hopBody struct {
	rc   io.ReadCloser
	rec  *recorder
	s    span
	sent *atomic.Int64
	got  atomic.Int64
	once sync.Once
}

func (b *hopBody) finish() {
	b.once.Do(func() {
		b.s.End = now()
		b.s.ReqBytes = b.sent.Load()
		b.s.RespBytes = b.got.Load()
		b.rec.add(b.s)
	})
}

func (b *hopBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.got.Add(int64(n))
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *hopBody) Close() error {
	err := b.rc.Close()
	b.finish()
	return err
}

// interval is a half-open time range [start, end).
type interval struct{ start, end int64 }

// unionWithin returns how much of w the union of ivs covers.
func unionWithin(w interval, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		iv.start = max(iv.start, w.start)
		iv.end = min(iv.end, w.end)
		if iv.end > iv.start {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case iv.start <= cur.end:
			cur.end = max(cur.end, iv.end)
		default:
			total += cur.end - cur.start
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.end - cur.start
	}
	return total
}

// selfTime is the part of parent not covered by any child.
func selfTime(parent span, children []span) int64 {
	ivs := make([]interval, len(children))
	for i, c := range children {
		ivs[i] = c.iv()
	}
	return parent.dur() - unionWithin(parent.iv(), ivs)
}

// matchChildren assigns each child to the parent that handles the same
// object and whose interval contains the child's start, preferring the
// latest-starting such parent when two requests for one object
// overlap. Only the start must lie inside: a handler returns, and its
// span ends, a little after the peer has read its last byte, so a
// child may outlive its parent by that much. compatible further
// restricts which parents a child may join (nil allows any). It
// returns, for every parent, the indices of its children, and the
// number of children left unmatched.
func matchChildren(parents, children []span, compatible func(p, c span) bool) ([][]int, int) {
	byObject := make(map[string][]int)
	for i, p := range parents {
		byObject[p.Object] = append(byObject[p.Object], i)
	}
	out := make([][]int, len(parents))
	unmatched := 0
	for ci, c := range children {
		best := -1
		for _, pi := range byObject[c.Object] {
			p := parents[pi]
			if c.Start < p.Start || c.Start > p.End || (compatible != nil && !compatible(p, c)) {
				continue
			}
			if best < 0 || p.Start > parents[best].Start {
				best = pi
			}
		}
		if best < 0 {
			unmatched++
			continue
		}
		out[best] = append(out[best], ci)
	}
	return out, unmatched
}
