package analytics

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"testing"

	"ihtl/internal/core"
	"ihtl/internal/sched"
	"ihtl/internal/spmv"
)

// driverPins are the digests of every analytics driver over three
// engines — a pull baseline on the pool it was built on, a core.Engine
// over a graph with flipped blocks and a resident (streaming)
// core.Engine — each driven with that engine's own pool, as computed
// when each driver still picked its step by type assertion (one arm per
// capability). The flipped engine balances its flipped blocks
// statically: a stealing engine's hub merges are grouped by the
// schedule, so its bits move from run to run. HITS runs
// with the engine as both its forward and its reverse step. A driver
// that steps every engine through one call must land on the same bits:
// the engines' grids and placements are what they were, and a
// baseline's epilogue runs on its pool's static shares, as the drivers
// ran it.
var driverPins = map[string]string{
	"pull/pagerank":     "933c377f3ea16c6f9c317e77deb10c4776f10f42fb44d40e90baff1c827730d6",
	"pull/ppr1":         "8737dc2885e3e8469e3c464df5dc6d361878311926f9117b212b8eb74a8203d5",
	"pull/ppr8":         "94ce65d580bdeffb9e240e27c8ae177634dc72bca2569b04d1ce4c14ffca3d75",
	"pull/lanes":        "23f1e2fa2385d6f309834c8bad6790d77a86db8891ac6a2d117a92f2639fbbb5",
	"pull/hits":         "dc6b11345769058c53de6163b48ab93a49290f10489c3e55c2838cef2b610dad",
	"flipped/pagerank":  "f32396a232930af762664a019f381f6eb391b43d183b6c533d900a7053886599",
	"flipped/ppr1":      "24227096e87d4cb76f1044583d268316c8aacc04e59f703215fc5bf7b9af2e98",
	"flipped/ppr8":      "7073e548eaea8dced1ee73151202972ac41438a305ab7e472f4d2e67fdcd4e4c",
	"flipped/lanes":     "1b98e0aae3934ae5e3a2d309c01b41551e02f3c044ec8c5ca00530eab2f01743",
	"flipped/hits":      "864c92dd09ad34d28769f46620662e3607bc239fca85176095d2878b7636b52d",
	"resident/pagerank": "450c831b847ab34d9b7fa8397a1bb37cf1133b77dd637eb1bd1a9f595c659f9e",
	"resident/ppr1":     "3abaaac3dcfee8decd5b755b95e349f7a25e1381b5116969eef3f33119002306",
	"resident/ppr8":     "acadea84debef6e9531e76e8d118e3f4200a373a039f2ccac7ba807e90274bf7",
	"resident/lanes":    "23f1e2fa2385d6f309834c8bad6790d77a86db8891ac6a2d117a92f2639fbbb5",
	"resident/hits":     "dc6b11345769058c53de6163b48ab93a49290f10489c3e55c2838cef2b610dad",
}

// digester hashes float vectors bit for bit, plus counters.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{sha256.New()} }

func (d *digester) floats(xs []float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		d.h.Write(b[:])
	}
}

func (d *digester) ints(xs ...int) { fmt.Fprint(d.h, xs) }

func (d *digester) sum() string { return fmt.Sprintf("%x", d.h.Sum(nil)) }

// pinnedDrivers runs every pinned driver over e, stepped with pool, and
// returns the digest of each by driver name.
func pinnedDrivers(t *testing.T, e spmv.Stepper, deg []int, pool *sched.Pool) map[string]string {
	t.Helper()
	n := e.NumVertices()
	out := map[string]string{}
	opt := PageRankOptions{MaxIters: 40, RedistributeDangling: true}

	pr, err := RunPageRank(e, deg, pool, opt)
	if err != nil {
		t.Fatal(err)
	}
	d := newDigester()
	d.floats(pr.Ranks)
	d.floats([]float64{pr.Delta})
	d.ints(pr.Iters)
	out["pagerank"] = d.sum()

	sources := []int{0, n / 3, n / 2, n - 1, 7, n / 5, 2 * n / 3, 1}
	for _, k := range []int{1, 8} {
		res, err := RunPersonalizedPageRankCtx(nil, e, deg, pool, sources[:k], PageRankOptions{MaxIters: 40, Tol: 1e-7, RedistributeDangling: true})
		if err != nil {
			t.Fatal(err)
		}
		d := newDigester()
		d.floats(res.Ranks)
		d.floats(res.Deltas)
		d.ints(res.Iters, res.K)
		out[fmt.Sprintf("ppr%d", k)] = d.sum()
	}

	lanes := make([]LaneRequest, 5)
	for j := range lanes {
		lanes[j].Source = sources[j]
	}
	d = newDigester()
	var results []LaneResult
	if err := RunPPRLanes(context.Background(), e, deg, pool, lanes, PageRankOptions{MaxIters: 60, Tol: 1e-6}, func(r LaneResult) {
		results = append(results, r)
	}); err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		d.ints(r.Lane, int(r.Status), r.Iters)
		d.floats([]float64{r.Delta})
		d.floats(r.Ranks)
	}
	out["lanes"] = d.sum()

	hits, err := RunHITS(e, e, HITSOptions{MaxIters: 15, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	d = newDigester()
	d.floats(hits.Authority)
	d.floats(hits.Hub)
	d.ints(hits.Iters)
	out["hits"] = d.sum()
	return out
}

// TestDriverPins holds every driver's bits on the engines above.
func TestDriverPins(t *testing.T) {
	g := mustRMAT(t, 11, 8, 3)
	pool := sched.NewPool(3)
	defer pool.Close()

	pull, err := spmv.NewEngine(g, pool, spmv.Pull, spmv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	flippedIH, err := core.Build(g, core.Params{HubsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	flipped, err := core.NewEngine(flippedIH, pool)
	if err != nil {
		t.Fatal(err)
	}
	if len(flippedIH.Blocks) == 0 {
		t.Fatal("flipped build has no flipped block")
	}
	residentIH, err := core.Build(g, core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	resident, err := core.NewEngine(residentIH, pool)
	if err != nil {
		t.Fatal(err)
	}
	if _, streamed := resident.EpiSlots(); !streamed {
		t.Fatal("resident engine does not stream")
	}
	// The "-default" engine is a second build of the flipped graph
	// under zero EngineOptions, held to the same digests: the static
	// flipped split makes the bits a function of the graph and the
	// worker count, not of the build or engine instance.
	flippedIH2, err := core.Build(g, core.Params{HubsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	flipped2, err := core.NewEngineOpts(flippedIH2, pool, core.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}

	engines := []struct {
		name, pins string
		e          spmv.Stepper
		deg        []int
	}{
		{"pull", "pull", pull, outDegrees(g)},
		{"flipped", "flipped", flipped, flippedIH.OutDegrees()},
		{"resident", "resident", resident, residentIH.OutDegrees()},
		{"flipped-default", "flipped", flipped2, flippedIH2.OutDegrees()},
	}
	for _, c := range engines {
		for driver, got := range pinnedDrivers(t, c.e, c.deg, pool) {
			if want := driverPins[c.pins+"/"+driver]; got != want {
				t.Errorf("%s/%s: digest %s, want %s", c.name, driver, got, want)
			}
		}
	}
}
