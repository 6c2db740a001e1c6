package main

import (
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"dialga/internal/cluster"
	"dialga/internal/node"
	"dialga/internal/obs"
)

// Cluster geometry and gateway settings: the dialga-node defaults.
const (
	numNodes   = 6
	dataShards = 4
	parity     = 2
	stripeSize = 1 << 20
	hedgeAfter = 30 * time.Millisecond
)

// benchCluster is a real cluster in one process: six node.Stores, each
// behind node.NewServer(...).Handler() on its own loopback listener,
// and a gateway whose Handler() serves the load generator on a seventh
// listener. When rec is set, every layer boundary is wrapped from the
// outside: the gateway's shard transport, the gateway handler and each
// node handler record spans into it.
type benchCluster struct {
	root  string
	reg   *obs.Registry
	rec   *recorder
	nodes []*benchNode
	gw    *cluster.Gateway
	front *server
	base  string // the gateway's object URL prefix

	shardTransport *http.Transport // gateway -> nodes
	frontTransport *http.Transport // load generator -> gateway
	restarts       int
}

type benchNode struct {
	id   string
	dir  string
	addr string
	srv  *server
}

// server is an http.Server whose Serve goroutine stop waits for.
type server struct {
	srv  *http.Server
	done chan struct{}
}

func serve(addr string, h http.Handler) (*server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	s := &server{srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	return s, ln.Addr().String(), nil
}

func (s *server) stop() {
	s.srv.Close()
	<-s.done
}

func newTransport() *http.Transport {
	// Same settings as http.DefaultTransport, which dialga-node's
	// gateway uses, but a pool of its own.
	return http.DefaultTransport.(*http.Transport).Clone()
}

// startCluster brings up the six nodes and the gateway under root.
func startCluster(root string, seed uint64, rec *recorder) (*benchCluster, error) {
	c := &benchCluster{
		root:           root,
		reg:            obs.NewRegistry(),
		rec:            rec,
		shardTransport: newTransport(),
		frontTransport: newTransport(),
	}
	infos := make([]cluster.NodeInfo, numNodes)
	for i := range infos {
		n := &benchNode{
			id:   fmt.Sprintf("n%d", i),
			dir:  filepath.Join(root, fmt.Sprintf("n%d", i)),
			addr: "127.0.0.1:0",
		}
		c.nodes = append(c.nodes, n)
		if err := c.startNode(n); err != nil {
			c.close()
			return nil, err
		}
		infos[i] = cluster.NodeInfo{
			ID: cluster.NodeID(n.id), Addr: n.addr,
			Rack: fmt.Sprintf("r%d", i), Zone: fmt.Sprintf("z%d", i%2),
		}
	}
	cmap, err := cluster.New(infos)
	if err != nil {
		c.close()
		return nil, err
	}
	router, _ := cluster.NewRouter("first-k")
	var shardRT http.RoundTripper = c.shardTransport
	if rec != nil {
		shardRT = &hopTransport{base: c.shardTransport, rec: rec}
	}
	c.gw, err = cluster.NewGateway(cluster.GatewayOptions{
		Map: cmap, K: dataShards, M: parity,
		StripeSize: stripeSize,
		Router:     router,
		HedgeAfter: hedgeAfter,
		HTTPClient: &http.Client{Transport: shardRT},
		Metrics:    c.reg,
		Seed:       seed,
	})
	if err != nil {
		c.close()
		return nil, err
	}
	var gh http.Handler = c.gw.Handler()
	if rec != nil {
		gh = rec.wrapHandler(levelGateway, "gw", gh)
	}
	front, addr, err := serve("127.0.0.1:0", gh)
	if err != nil {
		c.close()
		return nil, err
	}
	c.front = front
	c.base = "http://" + addr + "/v1/object/"
	return c, nil
}

// startNode opens the node's store (running its recovery scan) and
// serves it, on the node's previous address when it has one.
func (c *benchCluster) startNode(n *benchNode) error {
	store, err := node.OpenStore(n.dir, c.reg)
	if err != nil {
		return err
	}
	// Unmetered admission, as dialga-node runs with its default
	// -fg-rps and -repair-rps of 0.
	lim := cluster.NewLimiter(map[string]cluster.Rate{
		node.ClassForeground: {PerSecond: 0},
		node.ClassRepair:     {PerSecond: 0},
	}, c.reg)
	var h http.Handler = node.NewServer(store, lim, c.reg).Handler()
	if c.rec != nil {
		h = c.rec.wrapHandler(levelNode, n.id, h)
	}
	srv, addr, err := serve(n.addr, h)
	if err != nil {
		return fmt.Errorf("node %s: %w", n.id, err)
	}
	n.srv, n.addr = srv, addr
	return nil
}

func (c *benchCluster) stopNode(i int) {
	if n := c.nodes[i]; n.srv != nil {
		n.srv.stop()
		n.srv = nil
	}
	// Drop pooled connections to the stopped listener so the gateway
	// sees the node as refused rather than reading a dead socket.
	c.shardTransport.CloseIdleConnections()
}

// replaceNode restarts node i on its old address with an empty
// directory: a failed node swapped for a fresh one.
func (c *benchCluster) replaceNode(i int) error {
	c.restarts++
	n := c.nodes[i]
	n.dir = filepath.Join(c.root, fmt.Sprintf("%s-replacement-%d", n.id, c.restarts))
	return c.startNode(n)
}

// storedBytes sums the sizes of every file under the serving nodes'
// directories (a replaced node's old directory no longer counts).
func (c *benchCluster) storedBytes() (int64, error) {
	var total int64
	for _, n := range c.nodes {
		b, err := dirBytes(n.dir)
		if err != nil {
			return 0, err
		}
		total += b
	}
	return total, nil
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				if errors.Is(err, fs.ErrNotExist) {
					return nil
				}
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// close stops every server and waits for it, then removes root.
func (c *benchCluster) close() {
	if c.front != nil {
		c.front.stop()
	}
	for i := range c.nodes {
		c.stopNode(i)
	}
	c.frontTransport.CloseIdleConnections()
	os.RemoveAll(c.root)
}
