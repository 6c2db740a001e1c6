package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"slices"
	"testing"
)

func TestPercentileTenBeyondRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n, p   int
		want   float64
		wantOK bool
	}{
		{1000, 99, 990, true}, // exactly ten samples above rank 990
		{999, 99, 0, false},   // rank 990 leaves only nine above it
		{20, 50, 10, true},
		{19, 50, 0, false},
		{0, 50, 0, false},
		{100, 90, 90, true},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if got != tc.want || ok != tc.wantOK {
			t.Errorf("percentile(n=%d, p%d) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.wantOK)
		}
	}
}

func TestHistPercentile(t *testing.T) {
	bounds := []float64{10, 20, 40}
	if v, n, ok := histPercentile([]uint64{500, 400, 100, 0}, bounds, 99); !ok || v != 40 || n != 1000 {
		t.Errorf("p99 = %v (n=%d, ok=%v), want 40", v, n, ok)
	}
	if _, _, ok := histPercentile([]uint64{500, 400, 80, 20}, bounds, 99); ok {
		t.Error("p99 in the overflow bucket must not be reported")
	}
	if _, _, ok := histPercentile([]uint64{5, 4, 0, 0}, bounds, 50); ok {
		t.Error("p50 of 9 samples must not be reported")
	}
}

func TestUnionAndSelfTime(t *testing.T) {
	parent := span{Start: 0, End: 100}
	for _, tc := range []struct {
		name     string
		children []span
		self     int64
	}{
		{"none", nil, 100},
		{"disjoint", []span{{Start: 10, End: 20}, {Start: 30, End: 50}}, 70},
		{"overlapping", []span{{Start: 10, End: 40}, {Start: 30, End: 60}, {Start: 35, End: 45}}, 50},
		{"touching", []span{{Start: 10, End: 20}, {Start: 20, End: 30}}, 80},
		{"clipped to parent", []span{{Start: -10, End: 10}, {Start: 90, End: 120}}, 80},
		{"covering", []span{{Start: 0, End: 100}, {Start: 5, End: 6}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.self {
			t.Errorf("%s: self = %d, want %d", tc.name, got, tc.self)
		}
	}
}

func TestMatchHopsToOps(t *testing.T) {
	gws := []span{
		{Kind: opPut, Object: "a", Start: 0, End: 100},
		{Kind: opGet, Object: "b", Start: 50, End: 150},
		{Kind: opGet, Object: "a", Start: 120, End: 200},
		{Kind: opGet, Object: "a", Start: 130, End: 190}, // overlaps the one before
	}
	hops := []span{
		{Kind: "shard_put", Object: "a", Start: 10, End: 90},   // -> 0
		{Kind: "shard_get", Object: "b", Start: 60, End: 99},   // -> 1, though inside 0's time too
		{Kind: "shard_get", Object: "a", Start: 140, End: 180}, // -> 3, the tightest enclosing get of a
		{Kind: "shard_get", Object: "a", Start: 121, End: 195}, // -> 2, only 2 encloses it
		{Kind: "shard_get", Object: "a", Start: 90, End: 130},  // starts before any get of a: unmatched
		{Kind: "shard_put", Object: "a", Start: 150, End: 160}, // wrong kind for a get: unmatched
		{Kind: "shard_get", Object: "zz", Start: 10, End: 20},  // no op on that object
		{Kind: "shard_get", Object: "b", Start: 149, End: 151}, // -> 1: ends just after its parent
	}
	compatible := func(p, c span) bool { return hopKinds[p.Kind][c.Kind] }
	got, unmatched := matchChildren(gws, hops, compatible)
	want := [][]int{{0}, {1, 7}, {3}, {2}}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Errorf("parent %d children = %v, want %v", i, got[i], want[i])
		}
	}
	if unmatched != 3 {
		t.Errorf("unmatched = %d, want 3", unmatched)
	}
}

func TestParseRoute(t *testing.T) {
	for _, tc := range []struct {
		method, path, kind, object string
		idx                        int
	}{
		{"PUT", "/v1/shard/obj-00001/3", "shard_put", "obj-00001", 3},
		{"GET", "/v1/shard/obj-00001/0", "shard_get", "obj-00001", 0},
		{"GET", "/v1/stat/obj-7/5", "stat", "obj-7", 5},
		{"GET", "/v1/objects", "objects", "", -1},
	} {
		kind, object, idx := parseRoute(tc.method, tc.path)
		if kind != tc.kind || object != tc.object || idx != tc.idx {
			t.Errorf("parseRoute(%s %s) = %q %q %d", tc.method, tc.path, kind, object, idx)
		}
	}
}

func TestVersionSetCheck(t *testing.T) {
	const seed = 7
	size := func(k int, v int64) int { return 1000 + int(v)*10 }
	vs := newVersions(1)
	chk := newChecker(seed, size, 2000)
	put := func() int64 {
		v := vs.beginPut(0)
		vs.endPut(0, v, true)
		return v
	}
	v0 := put()

	// A read racing an overwrite may return either version, whole.
	tok := vs.beginRead(0)
	v1 := vs.beginPut(0)
	cands := vs.endRead(tok)
	vs.endPut(0, v1, true)
	if !slices.Equal(cands, []int64{v0, v1}) {
		t.Fatalf("candidates = %v, want [%d %d]", cands, v0, v1)
	}
	for _, v := range cands {
		if !chk.matchFull(0, cands, payload(seed, 0, v, size(0, v))) {
			t.Errorf("version %d rejected", v)
		}
	}

	// A flipped byte is caught.
	body := payload(seed, 0, v1, size(0, v1))
	body[len(body)/2] ^= 0x40
	if chk.matchFull(0, cands, body) {
		t.Error("flipped byte accepted")
	}

	// A torn mix: v1's length, v0's bytes in the first part.
	torn := payload(seed, 0, v1, size(0, v1))
	copy(torn[:500], payload(seed, 0, v0, size(0, v0))[:500])
	if chk.matchFull(0, cands, torn) {
		t.Error("torn mix of two versions accepted")
	}

	// After the overwrite is acked, only the new version is legitimate.
	later := vs.endRead(vs.beginRead(0))
	if chk.matchFull(0, later, payload(seed, 0, v0, size(0, v0))) {
		t.Error("stale version accepted once the overwrite was acked")
	}

	// After a delete no version is legitimate, and the next put gets
	// a version number of its own.
	vs.deleted(0)
	if gone := vs.endRead(vs.beginRead(0)); chk.matchFull(0, gone, payload(seed, 0, v1, size(0, v1))) {
		t.Error("deleted version accepted")
	}
	if v2 := put(); v2 == v1 || vs.current(0) != v2 {
		t.Errorf("put after delete: version %d, current %d", v2, vs.current(0))
	}
}

func TestRangeCheck(t *testing.T) {
	const seed = 3
	size := func(k int, v int64) int { return []int{4096, 1024}[v] }
	chk := newChecker(seed, size, 4096)
	full := payload(seed, 0, 0, 4096)
	both := []int64{0, 1}
	if !chk.matchRange(0, both, 2000, 100, http.StatusPartialContent, full[2000:2100]) {
		t.Error("exact window rejected")
	}
	// v1 is 1024 bytes long, so a window at 2000 is unsatisfiable there.
	if !chk.matchRange(0, both, 2000, 100, http.StatusRequestedRangeNotSatisfiable, nil) {
		t.Error("416 rejected although a legitimate version is shorter than the offset")
	}
	if chk.matchRange(0, []int64{0}, 2000, 100, http.StatusRequestedRangeNotSatisfiable, nil) {
		t.Error("416 accepted for a version that covers the window")
	}
	bad := append([]byte(nil), full[2000:2100]...)
	bad[7] ^= 1
	if chk.matchRange(0, both, 2000, 100, http.StatusPartialContent, bad) {
		t.Error("flipped byte in a range accepted")
	}
	// A window past the end is clipped to the object.
	if !chk.matchRange(0, both, 4000, 200, http.StatusPartialContent, full[4000:]) {
		t.Error("clipped tail window rejected")
	}
}

func TestGenerationIsDeterministic(t *testing.T) {
	a, b := payload(1, 5, 2, 1000), payload(1, 5, 2, 1000)
	if !slices.Equal(a, b) {
		t.Fatal("same (seed, key, version) gave different bytes")
	}
	if slices.Equal(a, payload(2, 5, 2, 1000)) || slices.Equal(a, payload(1, 5, 3, 1000)) {
		t.Fatal("different seed or version gave the same bytes")
	}
	if !slices.Equal(payload(1, 5, 2, 37), a[:37]) {
		t.Fatal("a prefix does not regenerate with a shorter buffer")
	}
	z1, z2 := newZipf(9, 1000, mixZipfS), newZipf(9, 1000, mixZipfS)
	r1, r2 := newRNG(9, saltClient), newRNG(9, saltClient)
	for i := 0; i < 100; i++ {
		if z1.draw(r1) != z2.draw(r2) {
			t.Fatal("same seed drew different keys")
		}
	}
	size := mixSize(1)
	for k := 0; k < mixKeys; k++ {
		for v := int64(0); v < 3; v++ {
			if s := size(k, v); s < mixMinSize || s > mixMaxSize {
				t.Fatalf("size %d outside [%d, %d]", s, mixMinSize, mixMaxSize)
			}
		}
	}
	// Preloaded sizes are stratified: one per 1/mixKeys slice of the
	// log range, whatever the seed.
	for _, seed := range []uint64{1, 2} {
		size := mixSize(seed)
		seen := make([]bool, mixKeys)
		lo, hi := math.Log(mixMinSize), math.Log(mixMaxSize)
		for k := 0; k < mixKeys; k++ {
			slice := int((math.Log(float64(size(k, 0))) - lo) / (hi - lo) * mixKeys)
			seen[min(slice, mixKeys-1)] = true
		}
		missing := 0
		for _, ok := range seen {
			if !ok {
				missing++
			}
		}
		// Truncation to whole bytes can move a size across a slice edge.
		if missing > mixKeys/50 {
			t.Errorf("seed %d: %d of %d size slices empty", seed, missing, mixKeys)
		}
	}
}

// The metric names the binary reports are the ones BENCHMARK.json
// declares, in both lists.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		out := make([]string, len(xs))
		for i, x := range xs {
			out[i] = x.Name
		}
		return out
	}
	if got := names(spec.EndToEnd); !slices.Equal(got, endToEndNames) {
		t.Errorf("end_to_end = %v, binary reports %v", got, endToEndNames)
	}
	if got := names(spec.PerLayer); !slices.Equal(got, perLayerNames) {
		t.Errorf("per_layer = %v, binary reports %v", got, perLayerNames)
	}
	for _, w := range names(spec.Workloads) {
		if workloads[w] == nil {
			t.Errorf("workload %q has no runner", w)
		}
	}
}
