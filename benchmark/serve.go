package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"ihtl"
	"ihtl/internal/analytics"
	"ihtl/internal/core"
	"ihtl/internal/serve"
	"ihtl/internal/xrand"
)

// arrival is one scheduled request of the open loop.
type arrival struct {
	at  time.Duration // offset from the phase start at which it is due
	src uint32
}

// How one request ended.
const (
	answered = iota // complete answer within the limit
	shed            // refused at admission (ErrOverloaded)
	partial         // deadline expired mid-run: partial ranks
	late            // complete, but after the limit
	errored         // any other error
)

type outcome struct {
	kind    int
	late    time.Duration // how long after its due instant the generator sent it
	latency time.Duration // from the due instant to the answer
	lanes   int
	src     uint32
	ranks   []float64 // kept for the first serveCoalesced coalesced answers only
}

// runServe is one pass of serve-openloop: build the served graph and
// write its engine file, open the daemon, offer it Poisson traffic at
// three fixed rates, then time the rungs under a request — Step,
// PageRank and an eight-query burst — on the engine configuration the
// daemon runs.
func runServe(r *run, w *workload) error {
	pool := ihtl.NewPool(r.cfg.workers)
	defer pool.Close()
	gs, _, err := setupGraph(r, w, pool, 1, 1)
	if err != nil {
		return err
	}
	tag := fmt.Sprintf("serve-seed%d-trace%d", r.cfg.seed, btoi(r.cfg.traced))
	path := filepath.Join(r.cfg.outDir, tag+".ihtl2")
	spool := filepath.Join(r.cfg.outDir, tag+".spool")
	defer os.Remove(path)
	defer os.RemoveAll(spool)
	if err := os.RemoveAll(spool); err != nil { // a spool left by a killed pass would be replayed
		return err
	}
	if err := gs.eng.IHTL().SaveFileV2(path); err != nil {
		return err
	}
	cfg := serve.Config{
		EnginePath: path, SpoolDir: spool, Workers: r.cfg.workers,
		Query: serve.JobOptions{MaxIters: serveIters, Tol: -1},
	}

	// Set-up, as every daemon restart pays it: serve.New on the file.
	var s *serve.Server
	stop := func() error {
		if err := s.Drain(context.Background()); err != nil {
			return err
		}
		return s.Close()
	}
	var openS []float64
	for i := 0; i < r.plan.serveOpens; i++ {
		if s != nil {
			if err := stop(); err != nil {
				return err
			}
		}
		sp := r.tr.begin("serve.New")
		openS = append(openS, timeOp(func() { s, err = serve.New(cfg) }))
		r.tr.end(sp, nil)
		if err != nil {
			return err
		}
	}
	defer stop() //nolint:errcheck // the pass is over; a failed drain has nothing left to spoil
	r.did(len(openS))
	r.set("setup_s", median(openS), len(openS))
	runtime.GC()
	debug.FreeOSMemory()
	r.set("rss_mb", residentMB("VmRSS"), 0)

	sp := r.tr.begin("measure")
	defer func() { r.tr.end(sp, nil) }()

	mid := openLoop(r, s, gs.g.NumV)
	checkCoalesced(r, s, gs, mid)
	if err := daemonLadder(r, s, gs, path); err != nil {
		return err
	}
	if r.tr.on() {
		if err := serveLayers(r, s, gs, path); err != nil {
			return err
		}
		return measureLayers(r, gs)
	}
	return nil
}

// openLoop offers the daemon the three phases of servePhases — Poisson
// arrivals, Zipf sources over numV vertices, one goroutine per request
// in flight — records each phase's metrics, and returns the outcomes
// of phase mid. The generator gets a P of its own for the duration, so
// it does not queue behind the engine's workers.
func openLoop(r *run, s *serve.Server, numV int) (mid []outcome) {
	runtime.GOMAXPROCS(r.cfg.workers + 1)
	defer runtime.GOMAXPROCS(r.cfg.workers)
	rng := xrand.New(r.cfg.seed ^ 0xa881)
	hot := rng.Perm(numV) // Zipf rank → vertex
	zipf := xrand.NewZipf(rng, serveZipf, 1, uint64(numV))
	var lateMs []float64
	maxRate := 0.0
	for _, ph := range servePhases {
		var arrivals []arrival
		for at := 0.0; ; {
			at += -math.Log(1-rng.Float64()) / ph.qps
			if at >= ph.share*r.cfg.seconds {
				break
			}
			arrivals = append(arrivals, arrival{time.Duration(at * float64(time.Second)), uint32(hot[zipf.Uint64()])})
		}
		before := s.Metrics()
		out, wall := offer(r, s, ph.name, arrivals, ph.name == "mid")
		after := s.Metrics()

		count := map[int]int{}
		var latMs []float64
		for _, o := range out {
			count[o.kind]++
			lateMs = append(lateMs, o.late.Seconds()*1e3)
			if o.kind == answered || o.kind == late {
				latMs = append(latMs, o.latency.Seconds()*1e3)
			}
		}
		// A refusal, a partial or a late answer is the daemon working as
		// designed, so it costs goodput (or shows in serve.miss_frac.mid),
		// not correctness; only an error fails the request.
		r.op(len(out), count[errored] == 0, "phase %s: %d of %d requests failed with an error", ph.name, count[errored], len(out))
		missFrac := float64(len(out)-count[answered]) / float64(max(len(out), 1))
		batches := float64(after.Batches - before.Batches)
		var lanes float64
		for i := range after.LaneFill {
			lanes += float64(i+1) * float64(after.LaneFill[i]-before.LaneFill[i])
		}
		r.set("serve.mean_lane_fill."+ph.name, lanes/math.Max(batches, 1), int(batches))
		switch ph.name {
		case "low":
			r.set("serve.p50_ms.low", median(latMs), len(latMs))
		case "mid":
			r.set("serve_p50_ms", median(latMs), len(latMs))
			r.set("serve_p95_ms", quantile(latMs, 0.95), len(latMs))
			r.set("serve.batches_per_s.mid", batches/wall, int(batches))
			r.set("serve.miss_frac.mid", missFrac, len(out))
			mid = out
		case "over":
			r.set("serve_goodput_qps", float64(count[answered])/wall, len(out))
			r.set("serve.batches_per_s.over", batches/wall, int(batches))
			r.set("serve.shed_frac.over", float64(count[shed])/float64(len(out)), len(out))
			r.set("serve.deadline_partial_frac.over", float64(count[partial])/float64(len(out)), len(out))
		}
		if missFrac <= 0.01 && len(latMs) > 0 && quantile(latMs, 0.95) <= serveLimit.Seconds()*1e3 {
			maxRate = math.Max(maxRate, ph.qps)
		}
	}
	r.set("serve.max_rate_qps", maxRate, 0)
	r.set("serve.batch_retries", float64(s.Metrics().BatchRetries), 0)
	lateP95 := quantile(lateMs, 0.95)
	r.set("serve.gen_late_p95_ms", lateP95, len(lateMs))
	r.op(1, lateP95 <= lateLimit.Seconds()*1e3 || r.cfg.smoke, "the load generator ran late (p95 %.2f ms > %v): the pass is void", lateP95, lateLimit)
	return mid
}

// offer sends the scheduled requests, each from its own goroutine at
// its due instant whether or not earlier ones have returned, and waits
// for all of them. Latency counts from the due instant, so a stalled
// generator or a full queue shows in the requests it delayed. With
// keepRanks the first serveCoalesced coalesced answers keep their
// ranks for the bit-for-bit check.
func offer(r *run, s *serve.Server, name string, arrivals []arrival, keepRanks bool) ([]outcome, float64) {
	sp := r.tr.begin("phase:" + name)
	var kept atomic.Int32
	out := make([]outcome, len(arrivals))
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range arrivals {
		due := start.Add(a.at)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			sent := time.Now()
			ctx, cancel := context.WithDeadline(context.Background(), due.Add(serveLimit))
			ans, err := s.QueryPPR(ctx, a.src)
			cancel()
			end := time.Now()
			o := outcome{late: sent.Sub(due), latency: end.Sub(due), lanes: ans.Lanes, src: a.src}
			switch {
			case errors.Is(err, serve.ErrOverloaded):
				o.kind = shed
			case err != nil:
				o.kind = errored
			case ans.Status == analytics.LaneDeadline.String():
				o.kind = partial
			case o.latency > serveLimit:
				o.kind = late
			}
			if keepRanks && o.kind == answered && ans.Lanes > 1 && kept.Add(1) <= serveCoalesced {
				o.ranks = ans.Ranks
			}
			out[i] = o
			r.tr.add(sp, "serve.QueryPPR", due, end, map[string]any{"request": i, "outcome": o.kind, "lanes": o.lanes, "late_us": o.late.Microseconds()})
		}()
	}
	wall := time.Since(start).Seconds()
	wg.Wait()
	r.tr.end(sp, map[string]any{"offered": len(arrivals)})
	return out, wall
}

// checkCoalesced holds the daemon to its own contract: an answer that
// rode a coalesced batch is bit-for-bit the answer of a solo query of
// the same source. Two of them are also held to the frozen reference.
func checkCoalesced(r *run, s *serve.Server, gs *graphState, out []outcome) {
	checked, differ, refBad := 0, 0, 0
	for _, o := range out {
		if o.ranks == nil {
			continue
		}
		solo, err := s.QueryPPR(context.Background(), o.src)
		if err != nil || solo.Lanes != 1 || !bitEqual(solo.Ranks, o.ranks) {
			differ++
		}
		if checked < 2 && l1Dist(o.ranks, refPPR(gs.g, o.src, serveIters, r.cfg.workers)) > rankTol {
			refBad++
		}
		checked++
	}
	r.op(max(checked, 1), differ == 0 && refBad == 0 && (checked > 0 || r.cfg.smoke),
		"%d of %d coalesced answers differ from a solo query of the same source; %d differ from the reference", differ, checked, refBad)
}

func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// daemonEngine opens the engine file as the daemon does — memory-
// mapped, varint topology, StaticFlipped with the rollback watchdog —
// so the rungs below time the configuration a request runs on.
func daemonEngine(path string, pool *ihtl.Pool) (*ihtl.EngineFile, *core.Engine, error) {
	ef, err := ihtl.OpenEngineFile(path)
	if err != nil {
		return nil, nil, err
	}
	eng, err := core.NewEngineOpts(ef.IHTL(), pool, ihtl.EngineOptions{
		StaticFlipped: true, Health: ihtl.HealthPolicy{Mode: ihtl.HealthRollback},
	})
	if err != nil {
		ef.Close()
		return nil, nil, err
	}
	return ef, eng, nil
}

// daemonLadder reports the three ladder metrics for this workload:
// Step and whole-graph PageRank on the daemon's engine configuration,
// and eight simultaneous queries through the daemon itself (two
// coalesced batches: admission, fill window, lanes, answers).
func daemonLadder(r *run, s *serve.Server, gs *graphState, path string) error {
	ef, de, err := daemonEngine(path, gs.pool)
	if err != nil {
		return err
	}
	defer ef.Close()
	ih := ef.IHTL()
	n, edges := gs.g.NumV, float64(gs.g.NumE)

	checkStep(r, gs.g, ih, de)

	src, dst := denseSource(n), make([]float64, n)
	ref := newHostRef(gs.g, r.cfg.workers, r.plan.refReading)
	measureSteps(r, "core.Engine.Step blocks (daemon engine)", func() { de.Step(src, dst) }, ref, r.plan.stepBlock/5, 0.04, edges)

	var res analytics.PageRankResult
	prS, prRef := timeReps(r, "analytics.RunPageRank (daemon engine)", 0.04, ref, func() {
		if err == nil {
			res, err = analytics.RunPageRank(de, ih.OutDegrees(), gs.pool, analytics.PageRankOptions{})
		}
	})
	if err != nil {
		return err
	}
	r.set("pagerank_s", median(prS), len(prS))
	r.set("pagerank_vs_ref", medianRatio(prS, prRef, float64(res.Iters)), len(prS))
	ranks := make([]float64, n)
	ih.PermuteToOld(res.Ranks, ranks)
	wantRanks, wantIters := refPageRank(gs.g, 1e-9, 100, r.cfg.workers)
	d := l1Dist(ranks, wantRanks)
	r.op(len(prS), d <= rankTol && abs(res.Iters-wantIters) <= 1,
		"daemon-engine PageRank: L1 %.3g from the reference, %d iterations against %d", d, res.Iters, wantIters)
	r.set("analytics.pagerank_iters", float64(res.Iters), 0)

	sources := pickSources(gs.g, pprLanes)
	bad := 0
	burstS, burstRef := timeReps(r, "serve.QueryPPR ×8", 0.06, ref, func() {
		var wg sync.WaitGroup
		var failed atomic.Int32
		for _, v := range sources {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if ans, err := s.QueryPPR(context.Background(), v); err != nil || ans.Iters != serveIters {
					failed.Add(1)
				}
			}()
		}
		wg.Wait()
		bad += int(failed.Load())
	})
	r.op(len(burstS), bad == 0, "%d queries of the eight-query bursts failed", bad)
	r.set("ppr8_s", median(burstS), len(burstS))
	r.set("ppr8_vs_ref", medianRatio(burstS, burstRef, pprLanes*serveIters), len(burstS))
	return nil
}

// serveLayers is the traced run's view inside a request: a solo query,
// the batch under it called directly at each lane fill, the HTTP front
// end's share, and the job (write) path beside the query (read) path.
func serveLayers(r *run, s *serve.Server, gs *graphState, path string) error {
	sources := pickSources(gs.g, 64)
	next := 0
	source := func() uint32 { next++; return sources[next%len(sources)] }

	var err error
	soloS, k := r.probe("serve.QueryPPR (solo)", func() {
		if _, qerr := s.QueryPPR(context.Background(), source()); qerr != nil {
			err = qerr
		}
	})
	if err != nil {
		return err
	}
	r.set("serve.solo_query_ms", soloS*1e3, k)

	// The batch a request rides, without the daemon around it.
	ef, de, err := daemonEngine(path, gs.pool)
	if err != nil {
		return err
	}
	defer ef.Close()
	outDeg := ef.IHTL().OutDegrees()
	opt := analytics.PageRankOptions{MaxIters: serveIters, Tol: -1, CheckpointEvery: 4}
	batchMs := make([]float64, 5) // by lane fill
	for fill := 1; fill <= 4; fill++ {
		lanes := make([]analytics.LaneRequest, fill)
		batchS, k := r.probe(fmt.Sprintf("analytics.RunPPRLanes(%d)", fill), func() {
			for j := range lanes {
				lanes[j] = analytics.LaneRequest{Source: int(ef.IHTL().NewID[source()])}
			}
			if lerr := analytics.RunPPRLanes(context.Background(), de, outDeg, gs.pool, lanes, opt, func(analytics.LaneResult) {}); lerr != nil {
				err = lerr
			}
		})
		if err != nil {
			return err
		}
		batchMs[fill] = batchS * 1e3
		if fill == 4 {
			r.set("analytics.lanes4_batch_ms", batchMs[fill], k)
		}
	}
	fill := r.vals["serve.mean_lane_fill.mid"].Value
	lo := min(max(int(fill), 1), 3)
	atFill := batchMs[lo] + (fill-float64(lo))*(batchMs[lo+1]-batchMs[lo])
	r.set("serve.queue_wait_p50_ms.mid", r.vals["serve_p50_ms"].Value-atFill, r.vals["serve_p50_ms"].Samples)

	// HTTP: the same sequential query over one keep-alive connection.
	srv := httptest.NewServer(s.Handler())
	httpS, k := r.probe("POST /v1/ppr", func() {
		body := bytes.NewReader([]byte(fmt.Sprintf(`{"source":%d}`, source())))
		resp, herr := srv.Client().Post(srv.URL+"/v1/ppr", "application/json", body)
		if herr != nil {
			err = herr
			return
		}
		if _, herr := io.Copy(io.Discard, resp.Body); herr != nil {
			err = herr
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("POST /v1/ppr: %s", resp.Status)
		}
	})
	srv.Close()
	if err != nil {
		return err
	}
	r.set("serve.http_overhead_ms", (httpS-soloS)*1e3, k)

	// One whole-graph ranking job: checkpoints spooled as it runs.
	before := s.Metrics().SpoolWrites
	sp := r.tr.begin("serve.StartJob(pagerank)")
	jobS := timeOp(func() {
		var id string
		if id, err = s.StartJob("pagerank", nil, serve.JobOptions{}); err != nil {
			return
		}
		for {
			st, _ := s.JobStatusByID(id)
			if st.Status != serve.JobRunning {
				if st.Status != serve.JobDone {
					err = fmt.Errorf("pagerank job ended %s: %s", st.Status, st.Error)
				}
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	})
	r.tr.end(sp, nil)
	if err != nil {
		return err
	}
	r.set("serve.job_pagerank_s", jobS, 1)
	r.set("serve.spool_writes", float64(s.Metrics().SpoolWrites-before), 0)
	return nil
}
