package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"

	"dialga/internal/node"
)

// TestObjectWalk covers the one cluster-wide object listing through
// each of its callers: the gateway (Go API and GET /v1/objects/all),
// the repair scan, and the rebalance scan over old and current maps.
// Six nodes carry RS(2,2), so every object lives on four of them and
// the walk has to union and dedupe across nodes.
func TestObjectWalk(t *testing.T) {
	ctx := context.Background()
	gateway := func(c *testCluster, _ *Map) ([]string, error) { return c.gw.Objects(ctx) }
	repair := func(c *testCluster, _ *Map) ([]string, error) {
		return NewRepairer(c.gw, nil, c.reg).objects(ctx)
	}
	rebalance := func(c *testCluster, old *Map) ([]string, error) {
		return NewRepairer(c.gw, nil, c.reg).objectsAcross(ctx, c.gw.snap(), old)
	}
	listing := func(c *testCluster, _ *Map) ([]string, error) {
		srv := startHTTP(t, c)
		resp, err := srv.Client().Get(srv.URL + "/v1/objects/all")
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %d: %s", resp.StatusCode, body)
		}
		if !bytes.HasPrefix(body, []byte("[")) {
			return nil, fmt.Errorf("listing %q is not a JSON array", body)
		}
		var names []string
		err = json.Unmarshal(body, &names)
		return names, err
	}

	unsorted := []string{"walk-c", "walk-a", "walk-e", "walk-b", "walk-d"}
	sorted := []string{"walk-a", "walk-b", "walk-c", "walk-d", "walk-e"}
	for _, tt := range []struct {
		name    string
		walk    func(*testCluster, *Map) ([]string, error)
		objects []string // put through the gateway, in this order
		orphan  bool     // also store an object only a node outside the current map holds
		stop    int      // current members stopped before the walk
		want    []string
		listed  bool // the orphan object follows want in the result
		wantErr string
	}{
		{name: "gateway union dedupe sort", walk: gateway, objects: unsorted, want: sorted},
		{name: "repair union dedupe sort", walk: repair, objects: unsorted, want: sorted},
		{name: "gateway one node stopped", walk: gateway, objects: unsorted, stop: 1, want: sorted},
		{name: "gateway no node reachable", walk: gateway, objects: unsorted, stop: 6,
			wantErr: "cluster: no node reachable: "},
		{name: "repair no node reachable", walk: repair, objects: unsorted, stop: 6,
			wantErr: "cluster: repair scan: no node reachable: "},
		{name: "rebalance includes old-only node", walk: rebalance, objects: unsorted, orphan: true,
			want: sorted, listed: true},
		{name: "rebalance reaches old-only node alone", walk: rebalance, objects: unsorted, orphan: true,
			stop: 6, listed: true},
		{name: "gateway skips old-only node", walk: gateway, objects: unsorted, orphan: true, want: sorted},
		{name: "http listing", walk: listing, objects: unsorted, want: sorted},
		{name: "http listing empty cluster", walk: listing},
		{name: "http listing no node reachable", walk: listing, objects: unsorted, stop: 6,
			wantErr: "status 502: cluster: no node reachable: "},
	} {
		t.Run(tt.name, func(t *testing.T) {
			c := startCluster(t, 6, 2, 2, 0, 61)
			for i, name := range tt.objects {
				p := clusterPayload(uint64(600+i), 10_000)
				if _, err := c.gw.PutObject(ctx, name, bytes.NewReader(p), int64(len(p)), node.ClassForeground); err != nil {
					t.Fatalf("put %s: %v", name, err)
				}
			}
			old := c.gw.Map()
			want := tt.want
			if tt.orphan {
				var name string
				old, name = storeOrphan(t, c)
				if tt.listed {
					want = append(slices.Clone(want), name)
				}
			}
			for _, n := range c.nodes[:tt.stop] {
				n.stop()
			}
			got, err := tt.walk(c, old)
			if tt.wantErr != "" {
				if err == nil || !strings.HasPrefix(err.Error(), tt.wantErr) {
					t.Fatalf("err = %v, want prefix %q", err, tt.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("walk = %q, want %q", got, want)
			}
		})
	}
}

// storeOrphan starts a seventh node that only a previous map knows and
// stores one object whose sole shard lives there: the shard a
// rebalance has to find on a node the current map dropped. It returns
// that previous map and the object's name, which sorts after every
// "walk-" object.
func storeOrphan(t *testing.T, c *testCluster) (*Map, string) {
	t.Helper()
	ctx := context.Background()
	extra := &testNode{t: t, id: "n6", dir: t.TempDir(), addr: "127.0.0.1:0", reg: c.reg}
	extra.start()
	t.Cleanup(extra.stop)
	old, err := New(append(slices.Clone(c.cmap.Nodes()),
		NodeInfo{ID: extra.id, Addr: extra.addr, Rack: "r6", Zone: "z0"}))
	if err != nil {
		t.Fatal(err)
	}
	gw, err := NewGateway(GatewayOptions{Map: old, K: 2, M: 2, HTTPClient: c.gw.hc})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		name := fmt.Sprintf("zz-orphan-%d", i)
		place, err := gw.Place(name)
		if err != nil {
			t.Fatal(err)
		}
		keep := slices.IndexFunc(place, func(n NodeInfo) bool { return n.ID == extra.id })
		if keep < 0 {
			continue
		}
		p := clusterPayload(99, 10_000)
		if _, err := gw.PutObject(ctx, name, bytes.NewReader(p), int64(len(p)), node.ClassForeground); err != nil {
			t.Fatalf("put %s: %v", name, err)
		}
		for idx, info := range place {
			if idx == keep {
				continue
			}
			cli, _ := gw.Client(info.ID)
			if err := cli.DeleteShard(ctx, name, idx); err != nil {
				t.Fatalf("delete %s shard %d: %v", name, idx, err)
			}
		}
		return old, name
	}
	t.Fatal("no object places a shard on the extra node")
	return nil, ""
}
