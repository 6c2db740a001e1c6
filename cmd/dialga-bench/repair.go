package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"dialga/internal/cluster"
	"dialga/internal/node"
	"dialga/internal/obs"
)

// repairConfig shapes the repair-convergence benchmark.
type repairConfig struct {
	Nodes     int   `json:"nodes"`
	K         int   `json:"k"`
	M         int   `json:"m"`
	Quorum    int   `json:"write_quorum"`
	Objects   int   `json:"objects"`
	ObjectKiB int   `json:"object_kib"`
	StripeKiB int   `json:"stripe_kib"`
	Seed      int64 `json:"seed"`
}

// repairResult is the benchmark's emitted shape (BENCH_repair.json in
// CI): how fast a cluster full of quorum-degraded puts converges back
// to full redundancy once the missing node returns.
type repairResult struct {
	Config          repairConfig `json:"config"`
	DegradedPuts    int          `json:"degraded_puts"`
	IntentsLogged   int          `json:"intents_logged"`
	IntentsAdopted  int          `json:"intents_adopted"`
	RepairedShards  int          `json:"repaired_shards"`
	ConvergeMS      float64      `json:"converge_ms"`
	RepairMBps      float64      `json:"repair_mbps"`
	IntentsDrained  bool         `json:"intents_drained"`
	FinalScrubClean bool         `json:"final_scrub_clean"`
}

// benchNode is one in-process cluster member: a real shard server on a
// real loopback listener, stoppable and restartable on the same
// address to simulate node loss and replacement.
type benchNode struct {
	id   cluster.NodeID
	dir  string
	addr string
	srv  *http.Server
}

func (n *benchNode) start(reg *obs.Registry) error {
	store, err := node.OpenStore(n.dir, reg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", n.addr)
	if err != nil {
		return err
	}
	if n.addr == "127.0.0.1:0" {
		n.addr = ln.Addr().String()
	}
	n.srv = &http.Server{Handler: node.NewServer(store, nil, reg).Handler()}
	go n.srv.Serve(ln)
	return nil
}

func (n *benchNode) stop() {
	if n.srv != nil {
		n.srv.Close()
		n.srv = nil
	}
}

// runRepairBench stands up an in-process cluster with one node down,
// streams quorum-acknowledged (degraded) puts through the gateway so
// every object owes one shard to the intent journal, then brings the
// node back and measures how long intent adoption plus the priority
// repair queue take to restore full redundancy.
func runRepairBench(quick, asJSON bool) error {
	cfg := repairConfig{
		Nodes: 6, K: 4, M: 2, Quorum: 5,
		Objects: 12, ObjectKiB: 1024, StripeKiB: 256,
		Seed: 42,
	}
	if quick {
		cfg.Objects, cfg.ObjectKiB, cfg.StripeKiB = 4, 128, 64
	}

	root, err := os.MkdirTemp("", "dialga-repair-bench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	reg := obs.NewRegistry()
	nodes := make([]*benchNode, cfg.Nodes)
	for i := range nodes {
		nodes[i] = &benchNode{
			id:   cluster.NodeID(fmt.Sprintf("n%d", i)),
			dir:  filepath.Join(root, fmt.Sprintf("n%d", i)),
			addr: "127.0.0.1:0",
		}
		if err := nodes[i].start(reg); err != nil {
			return err
		}
		defer nodes[i].stop()
	}

	infos := make([]cluster.NodeInfo, cfg.Nodes)
	for i, n := range nodes {
		infos[i] = cluster.NodeInfo{
			ID: n.id, Addr: n.addr,
			Rack: fmt.Sprintf("r%d", i),
			Zone: fmt.Sprintf("z%d", i%2),
		}
	}
	cmap, err := cluster.New(infos)
	if err != nil {
		return err
	}
	intents, err := cluster.OpenIntentLog(filepath.Join(root, "intents.log"), reg)
	if err != nil {
		return err
	}
	defer intents.Close()
	gw, err := cluster.NewGateway(cluster.GatewayOptions{
		Map: cmap, K: cfg.K, M: cfg.M,
		StripeSize:  cfg.StripeKiB * 1024,
		Metrics:     reg,
		Seed:        uint64(cfg.Seed),
		WriteQuorum: cfg.Quorum,
		PutBackoff:  5 * time.Millisecond,
		Intents:     intents,
		HTTPClient:  &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
	})
	if err != nil {
		return err
	}

	ctx := context.Background()
	objSize := int64(cfg.ObjectKiB) * 1024
	payload := func(i int) []byte {
		buf := make([]byte, objSize)
		st := uint64(cfg.Seed) + uint64(i)*0x9e3779b97f4a7c15
		for j := range buf {
			st = st*6364136223846793005 + 1442695040888963407
			buf[j] = byte(st >> 56)
		}
		return buf
	}
	objName := func(i int) string { return fmt.Sprintf("repair-obj-%03d", i) }

	// One node down: every put acks at quorum and journals one intent.
	nodes[cfg.Nodes-1].stop()
	for i := 0; i < cfg.Objects; i++ {
		if _, err := gw.PutObject(ctx, objName(i), bytes.NewReader(payload(i)), objSize, node.ClassForeground); err != nil {
			return fmt.Errorf("degraded put %s: %w", objName(i), err)
		}
	}
	logged := len(intents.Pending())

	// The node returns with an empty slice of these objects; adopt the
	// journal and converge.
	if err := nodes[cfg.Nodes-1].start(reg); err != nil {
		return err
	}
	rep := cluster.NewRepairer(gw, nil, reg)
	start := time.Now()
	adopted := rep.AdoptIntents()
	repaired, failed := rep.DrainOnce(ctx)
	convergeSecs := time.Since(start).Seconds()
	if failed > 0 {
		return fmt.Errorf("%d repairs failed", failed)
	}

	enqueued, err := rep.ScanOnce(ctx)
	if err != nil {
		return err
	}
	for i := 0; i < cfg.Objects; i++ {
		var out bytes.Buffer
		if err := gw.GetObject(ctx, objName(i), &out, node.ClassForeground); err != nil {
			return fmt.Errorf("verify %s: %w", objName(i), err)
		}
		if !bytes.Equal(out.Bytes(), payload(i)) {
			return fmt.Errorf("verify %s: payload mismatch", objName(i))
		}
	}

	shardBytes := float64(objSize) / float64(cfg.K) * float64(repaired)
	res := repairResult{
		Config:          cfg,
		DegradedPuts:    int(reg.Counter("cluster_put_degraded_total", "").Value()),
		IntentsLogged:   logged,
		IntentsAdopted:  adopted,
		RepairedShards:  repaired,
		ConvergeMS:      convergeSecs * 1000,
		RepairMBps:      shardBytes / (1 << 20) / convergeSecs,
		IntentsDrained:  len(intents.Pending()) == 0,
		FinalScrubClean: enqueued == 0,
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return err
		}
	} else {
		fmt.Printf("repair convergence: %d nodes, RS(%d,%d), quorum %d, %d objects x %d KiB\n",
			cfg.Nodes, cfg.K, cfg.M, cfg.Quorum, cfg.Objects, cfg.ObjectKiB)
		fmt.Printf("  degraded puts     %8d  (intents logged: %d)\n", res.DegradedPuts, res.IntentsLogged)
		fmt.Printf("  intents adopted   %8d\n", res.IntentsAdopted)
		fmt.Printf("  converge          %8.1f ms   (%d shards rebuilt, %.1f MB/s)\n",
			res.ConvergeMS, res.RepairedShards, res.RepairMBps)
		fmt.Printf("  intents drained   %v\n", res.IntentsDrained)
		fmt.Printf("  final scrub clean %v\n", res.FinalScrubClean)
	}
	if !res.IntentsDrained {
		return fmt.Errorf("intents not drained after convergence")
	}
	if !res.FinalScrubClean {
		return fmt.Errorf("cluster did not scrub clean after convergence")
	}
	return nil
}
