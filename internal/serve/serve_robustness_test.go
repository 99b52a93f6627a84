package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ihtl/internal/analytics"
	"ihtl/internal/core"
	"ihtl/internal/faultinject"
)

// TestServeDeadlinePartialDegrades: a query whose deadline expires
// mid-run comes back 200-shaped — status "deadline", converged=false,
// with the partial ranks of its last completed iteration.
func TestServeDeadlinePartialDegrades(t *testing.T) {
	path := testEngineFile(t, 9, 4, 43)
	cfg := testConfig(path)
	cfg.Query = JobOptions{MaxIters: 1_000_000, Tol: -1, RedistributeDangling: true}
	s := startServer(t, cfg)
	src := pickSources(t, path, 1)[0]

	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	ans, err := s.QueryPPR(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Status != "deadline" || ans.Converged {
		t.Fatalf("status %q converged %v, want degraded deadline partial", ans.Status, ans.Converged)
	}
	if ans.Ranks == nil {
		t.Fatal("deadline partial carried no ranks")
	}
	if ans.Iters >= 1_000_000 {
		t.Fatalf("iters %d: deadline did not cut the run short", ans.Iters)
	}
	if got := s.Metrics().Deadline; got != 1 {
		t.Fatalf("deadline counter = %d, want 1", got)
	}
}

// TestServeAbandonedLaneReclaimed: a requester that goes away frees
// its lane at the next iteration boundary; no ranks are computed for
// it and the caller sees context.Canceled.
func TestServeAbandonedLaneReclaimed(t *testing.T) {
	path := testEngineFile(t, 8, 4, 44)
	s := startServer(t, testConfig(path))
	src := pickSources(t, path, 1)[0]

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.QueryPPR(ctx, src)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := s.Metrics().Cancelled; got != 1 {
		t.Fatalf("cancelled counter = %d, want 1", got)
	}
}

// TestServeOverloadShedsWithBoundedQueue drives far more concurrent
// queries than the queue admits while a Delay fault slows every batch
// dispatch: the excess must shed as HTTP 429 with Retry-After, every
// admitted query must still answer, and the goroutine count must
// settle after drain — shedding may not leak.
func TestServeOverloadShedsWithBoundedQueue(t *testing.T) {
	path := testEngineFile(t, 8, 2, 45)
	cfg := testConfig(path)
	cfg.Lanes = 2
	cfg.QueueLimit = 4
	cfg.FillWindow = time.Millisecond
	cfg.DefaultTimeout = 5 * time.Second
	s := startServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	src := pickSources(t, path, 1)[0]

	faultinject.Activate(faultinject.NewPlan(faultinject.Rule{
		Site: faultinject.SiteServeBatch, Kind: faultinject.Delay,
		Delay: 30 * time.Millisecond, Times: 1 << 30,
	}))
	defer faultinject.Deactivate()

	before := runtime.NumGoroutine()
	const clients = 32
	var ok, shed, other int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/ppr", "application/json",
				strings.NewReader(fmt.Sprintf(`{"source": %d}`, src)))
			if err != nil {
				t.Errorf("post: %v", err)
				return
			}
			defer resp.Body.Close()
			mu.Lock()
			defer mu.Unlock()
			switch resp.StatusCode {
			case http.StatusOK:
				ok++
			case http.StatusTooManyRequests:
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
				shed++
			default:
				other++
			}
		}()
	}
	wg.Wait()
	if other != 0 {
		t.Fatalf("unexpected statuses: ok=%d shed=%d other=%d", ok, shed, other)
	}
	if shed == 0 {
		t.Fatalf("no sheds with %d clients against queue of %d", clients, cfg.QueueLimit)
	}
	if ok == 0 {
		t.Fatal("every request shed; admission is over-tight")
	}
	m := s.Metrics()
	if m.Shed != int64(shed) {
		t.Fatalf("shed counter %d != %d observed 429s", m.Shed, shed)
	}

	// Goroutine settle: after the in-flight work drains, the only
	// goroutines left should be the baseline's (plus the test
	// server's idle conn pool, which Close tears down).
	ts.Close()
	ctx, cancelDrain := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelDrain()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines did not settle: before=%d now=%d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSpoolTornWriteQuarantined: every truncation of a spool record
// must be rejected at decode and quarantined (renamed .bad) by the
// startup scan — recovery must never panic or resurrect a torn job.
func TestSpoolTornWriteQuarantined(t *testing.T) {
	rec := &spoolRecord{
		Spec: jobSpec{ID: "job-1", Algo: "pagerank", Workers: 4,
			Opts: JobOptions{MaxIters: 10, Tol: 1e-6}},
		State: spoolStateRunning,
		Ckpt: &analytics.Checkpoint{Algo: "pagerank", Iter: 3, N: 2, K: 1,
			Ranks: []float64{0.5, 0.5}, Aux: []float64{0}},
	}
	var buf bytes.Buffer
	if err := encodeSpool(&buf, rec); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, err := decodeSpool(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(full))
		}
	}
	got, err := decodeSpool(bytes.NewReader(full))
	if err != nil {
		t.Fatalf("full record rejected: %v", err)
	}
	if got.Spec.ID != rec.Spec.ID || got.Ckpt.Iter != rec.Ckpt.Iter ||
		math.Float64bits(got.Ckpt.Ranks[0]) != math.Float64bits(rec.Ckpt.Ranks[0]) {
		t.Fatalf("round trip mismatch: %+v", got)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "good.spl"), full, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "torn.spl"), full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	recs, bad, err := scanSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || bad != 1 {
		t.Fatalf("scan: %d records, %d quarantined; want 1 and 1", len(recs), bad)
	}
	if _, err := os.Stat(filepath.Join(dir, "torn.spl.bad")); err != nil {
		t.Fatalf("torn record not quarantined: %v", err)
	}
}

// TestServeWarmRestartBitForBit is the in-process half of the kill -9
// contract: a job interrupted mid-run (drain parks it at its latest
// spooled checkpoint) resumes on a fresh Server over the same spool
// and finishes with exactly the ranks of an uninterrupted run — over a
// packed file with flipped blocks and over a raw one.
func TestServeWarmRestartBitForBit(t *testing.T) {
	t.Run("flipped", func(t *testing.T) { testWarmRestartBitForBit(t, testEngineFile(t, 9, 1, 46)) })
	t.Run("resident", func(t *testing.T) {
		testWarmRestartBitForBit(t, testEngineFileParams(t, 9, 46, core.Params{}))
	})
}

func testWarmRestartBitForBit(t *testing.T, path string) {
	spool := t.TempDir()
	jobOpts := JobOptions{MaxIters: 40, Tol: -1, RedistributeDangling: true}

	cfg := testConfig(path)
	cfg.SpoolDir = spool
	cfg.CheckpointEvery = 2
	cfg.JobIterDelay = 5 * time.Millisecond

	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id, err := s1.StartJob("pagerank", nil, jobOpts)
	if err != nil {
		t.Fatal(err)
	}
	// Let it spool a few checkpoints, then interrupt mid-run.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, ok := s1.JobStatusByID(id)
		if ok && st.Iter >= 4 && st.Status == JobRunning {
			break
		}
		if ok && st.Status == JobDone {
			t.Fatal("job finished before the interrupt; raise MaxIters or the delay")
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reached iter 4: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	s1.Close()

	// Fresh daemon over the same spool: the job must resume and
	// finish.
	cfg2 := cfg
	cfg2.JobIterDelay = 0
	s2 := startServer(t, cfg2)
	if got := s2.Metrics().JobsResumed; got != 1 {
		t.Fatalf("jobs resumed = %d, want 1", got)
	}
	for {
		st, ok := s2.JobStatusByID(id)
		if !ok {
			t.Fatalf("job %s lost across restart", id)
		}
		if st.Status == JobDone {
			break
		}
		if st.Status == JobFailed {
			t.Fatalf("resumed job failed: %+v", st)
		}
		if time.Now().After(deadline) {
			t.Fatalf("resumed job never finished: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	resumed, err := s2.JobRanks(id, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Uninterrupted reference on a third daemon (no spool, same
	// worker count).
	cfg3 := testConfig(path)
	s3 := startServer(t, cfg3)
	refID, err := s3.StartJob("pagerank", nil, jobOpts)
	if err != nil {
		t.Fatal(err)
	}
	for {
		st, _ := s3.JobStatusByID(refID)
		if st.Status == JobDone {
			break
		}
		if st.Status == JobFailed || time.Now().After(deadline) {
			t.Fatalf("reference job: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	want, err := s3.JobRanks(refID, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if math.Float64bits(resumed[v]) != math.Float64bits(want[v]) {
			t.Fatalf("rank[%d] = %v resumed, %v uninterrupted — warm restart is not bit-for-bit", v, resumed[v], want[v])
		}
	}
}

// TestServeChaosFaults is the smoke pass over the daemon's three
// fault sites: a panic per batch dispatch must be absorbed by the
// bounded batch retry, a panic per spool write by the job retry, and
// the server must keep answering correctly afterwards.
func TestServeChaosFaults(t *testing.T) {
	path := testEngineFile(t, 8, 2, 47)
	src := pickSources(t, path, 1)[0]

	t.Run("batch-panic-retried", func(t *testing.T) {
		cfg := testConfig(path)
		cfg.Lanes = 2
		s := startServer(t, cfg)
		faultinject.Activate(faultinject.NewPlan(faultinject.Rule{
			Site: faultinject.SiteServeBatch, Kind: faultinject.Panic, Times: 1,
		}))
		defer faultinject.Deactivate()
		ans, err := s.QueryPPR(context.Background(), src)
		if err != nil {
			t.Fatalf("query after injected batch panic: %v", err)
		}
		if !ans.Converged {
			t.Fatalf("answer degraded by retry: %+v", ans)
		}
		if got := s.Metrics().BatchRetries; got != 1 {
			t.Fatalf("batch retries = %d, want 1", got)
		}
	})

	t.Run("batch-panic-exhausts", func(t *testing.T) {
		s := startServer(t, testConfig(path))
		faultinject.Activate(faultinject.NewPlan(faultinject.Rule{
			Site: faultinject.SiteServeBatch, Kind: faultinject.Panic, Times: 1 << 30,
		}))
		defer faultinject.Deactivate()
		_, err := s.QueryPPR(context.Background(), src)
		if err == nil || !strings.Contains(err.Error(), "panic") {
			t.Fatalf("err = %v, want surfaced panic after bounded retries", err)
		}
		faultinject.Deactivate()
		if ans, err := s.QueryPPR(context.Background(), src); err != nil || !ans.Converged {
			t.Fatalf("server did not recover after fault cleared: %v %+v", err, ans)
		}
	})

	t.Run("spool-panic-job-retried", func(t *testing.T) {
		cfg := testConfig(path)
		cfg.SpoolDir = t.TempDir()
		cfg.CheckpointEvery = 1
		s := startServer(t, cfg)
		faultinject.Activate(faultinject.NewPlan(faultinject.Rule{
			Site: faultinject.SiteServeSpool, Kind: faultinject.Panic, Times: 1,
		}))
		defer faultinject.Deactivate()
		id, err := s.StartJob("pagerank", nil, JobOptions{MaxIters: 6, Tol: -1})
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			st, _ := s.JobStatusByID(id)
			if st.Status == JobDone {
				if st.Retries != 1 {
					t.Fatalf("job retries = %d, want 1", st.Retries)
				}
				break
			}
			if st.Status == JobFailed {
				t.Fatalf("job failed despite bounded retry: %+v", st)
			}
			if time.Now().After(deadline) {
				t.Fatalf("job stuck: %+v", st)
			}
			time.Sleep(2 * time.Millisecond)
		}
	})

	t.Run("admit-delay-tolerated", func(t *testing.T) {
		s := startServer(t, testConfig(path))
		faultinject.Activate(faultinject.NewPlan(faultinject.Rule{
			Site: faultinject.SiteServeAdmit, Kind: faultinject.Delay,
			Delay: 10 * time.Millisecond, Times: 4,
		}))
		defer faultinject.Deactivate()
		ans, err := s.QueryPPR(context.Background(), src)
		if err != nil || !ans.Converged {
			t.Fatalf("query under admit delay: %v %+v", err, ans)
		}
	})
}
