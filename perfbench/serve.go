package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/coverage"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/plans"
)

// The serve-mix shape: one job worker, a writer that submits one small
// job at a time, and a reader that sends exact-hit query batches. While a
// job runs the writer is blocked on its completion, so at most two of the
// three goroutines are runnable at once, which a 2-CPU machine holds. The
// library holds cmd/planload's default load shape: 64 four-PoI line
// scenarios queried in batches of 8.
const (
	servePrefill = 64 // library entries the reader hits
	prefillPoIs  = 4
	serveBatch   = 8  // queries per /plans:query request
	serveChecks  = 20 // jobs re-solved in process for the bit-identity check
	serveFill    = 4  // distinct misses in the traced fill probe
	jobGrid      = 3  // jobs solve a jobGrid×jobGrid field
	jobIters     = 5
	jobTimeout   = 20 * time.Second
)

// memStore is an in-memory jobs.Store: checkpoints and library entries
// cost a JSON encode and a map write, with no disk and no fsync in the
// measured path. The traced run times the program's FSStore separately,
// by replaying the recorded checkpoints into it.
type memStore struct {
	mu    sync.Mutex
	blobs map[string][]byte
}

func newMemStore() *memStore { return &memStore{blobs: make(map[string][]byte)} }

func (s *memStore) Get(name string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.blobs[name]
	if !ok {
		return nil, fmt.Errorf("memstore: %s: %w", name, fs.ErrNotExist)
	}
	return append([]byte(nil), b...), nil
}

func (s *memStore) Put(name string, blob []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.blobs[name] = append([]byte(nil), blob...)
	return nil
}

func (s *memStore) List() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.blobs))
	for name := range s.blobs {
		out = append(out, name)
	}
	return out, nil
}

func (s *memStore) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.blobs, name)
	return nil
}

// putStat accumulates one job's checkpoint writes.
type putStat struct {
	puts  int
	bytes int
}

// blob is one recorded checkpoint write.
type blob struct {
	name string
	data []byte
}

// countingStore wraps a jobs.Store, counting checkpoint puts and bytes
// per job (checkpoint names start with the job ID; plan-library entries
// pass through uncounted) and, when record is set, keeping a copy of the
// first replayMax checkpoints for the traced FSStore replay.
type countingStore struct {
	jobs.Store
	record bool
	mu     sync.Mutex
	perJob map[string]*putStat
	blobs  []blob
}

func (s *countingStore) Put(name string, data []byte) error {
	err := s.Store.Put(name, data)
	id, _, _ := strings.Cut(name, ".")
	if !strings.HasPrefix(id, "job-") {
		return err // a plan-library entry, not a job checkpoint
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.record && len(s.blobs) < replayMax {
		s.blobs = append(s.blobs, blob{name, append([]byte(nil), data...)})
	}
	st := s.perJob[id]
	if st == nil {
		st = &putStat{}
		s.perJob[id] = st
	}
	st.puts++
	st.bytes += len(data)
	return err
}

func (s *countingStore) jobStat(id string) putStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st := s.perJob[id]; st != nil {
		return *st
	}
	return putStat{}
}

// stack is the in-process cmd/serve job and plan stack behind loopback
// HTTP.
type stack struct {
	mgr   *jobs.Manager
	svc   *plans.Service
	reg   *obs.Registry
	store *countingStore
	srv   *http.Server
	base  string
	serve chan error

	mu     sync.Mutex
	done   map[string]chan struct{}
	doneAt map[string]time.Time
}

// prefillEntry is one solved problem the library starts with.
type prefillEntry struct {
	scn  coverage.Scenario
	plan *coverage.Plan
}

// bootStack starts the stack on an in-memory store, prefilled; with
// record set the store keeps checkpoint copies for the traced replay.
func bootStack(prefill []prefillEntry, record bool) (*stack, error) {
	s := &stack{
		reg:    obs.NewRegistry(),
		store:  &countingStore{Store: newMemStore(), record: record, perJob: make(map[string]*putStat)},
		serve:  make(chan error, 1),
		done:   make(map[string]chan struct{}),
		doneAt: make(map[string]time.Time),
	}
	httpHist := s.reg.HistogramVec("http_request_duration_seconds",
		"HTTP request latency by route pattern and status code.",
		obs.DefBuckets, "route", "status")
	var err error
	s.mgr, err = jobs.New(jobs.Config{
		Workers:       1,
		QueueDepth:    16,
		MaxJobWorkers: 1,
		Store:         s.store,
		Metrics:       s.reg,
	})
	if err != nil {
		return nil, err
	}
	lib, err := plans.New(plans.Config{
		Store:    s.store,
		Capacity: servePrefill + 1<<14,
		Metrics:  s.reg,
	})
	if err != nil {
		s.mgr.Shutdown(context.Background())
		return nil, err
	}
	s.svc, err = plans.NewService(plans.ServiceConfig{Library: lib, Jobs: s.mgr, Metrics: s.reg})
	if err != nil {
		s.mgr.Shutdown(context.Background())
		return nil, err
	}
	s.mgr.SetDoneListener(func(id string, spec jobs.Spec, plan *coverage.Plan) {
		s.svc.OnJobDone(id, spec, plan)
		s.markDone(id)
	})
	for _, e := range prefill {
		if _, err := lib.Publish(e.scn, benchObjectives, e.plan, plans.Provenance{Source: "manual"}); err != nil {
			s.mgr.Shutdown(context.Background())
			return nil, fmt.Errorf("prefill: %w", err)
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.mgr.Shutdown(context.Background())
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/", s.mgr.Handler())
	mux.Handle("POST /plans:query", s.svc.Handler())
	s.srv = &http.Server{Handler: obs.Middleware(mux, nil, httpHist)}
	s.base = "http://" + ln.Addr().String()
	go func() { s.serve <- s.srv.Serve(ln) }()
	return s, nil
}

// shutdown stops the server and the manager and waits for both.
func (s *stack) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	httpErr := s.srv.Shutdown(ctx)
	if err := <-s.serve; !errors.Is(err, http.ErrServerClosed) {
		httpErr = errors.Join(httpErr, err)
	}
	return errors.Join(httpErr, s.mgr.Shutdown(ctx))
}

func (s *stack) doneChan(id string) chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch := s.done[id]
	if ch == nil {
		ch = make(chan struct{})
		s.done[id] = ch
	}
	return ch
}

func (s *stack) markDone(id string) {
	now := time.Now()
	ch := s.doneChan(id)
	s.mu.Lock()
	s.doneAt[id] = now
	s.mu.Unlock()
	close(ch)
}

// waitDone blocks until the job's done listener fired.
func (s *stack) waitDone(id string) error {
	select {
	case <-s.doneChan(id):
		return nil
	case <-time.After(jobTimeout):
		v, err := s.mgr.Get(id)
		if err != nil {
			return fmt.Errorf("job %s: no completion after %v: %w", id, jobTimeout, err)
		}
		return fmt.Errorf("job %s: no completion after %v (state %s: %s)", id, jobTimeout, v.State, v.Error)
	}
}

// serveInputs is what a serve-mix seed generates.
type serveInputs struct {
	prefill []prefillEntry
	bodies  [][]byte        // pre-encoded query batches
	batches [][]plans.Query // the same batches, decoded
	wantFP  [][]string      // expected fingerprint per query
	jobs    func(int) jobs.Spec
	fill    []jobs.Spec
}

func genServeInputs(seed uint64) (*serveInputs, error) {
	in := &serveInputs{}
	r := stream(seed, streamPrefill)
	for i := 0; i < servePrefill; i++ {
		scn, err := coverage.LineScenario(fmt.Sprintf("lib-%04d", i), prefillPoIs, target(r, prefillPoIs, 0.2))
		if err != nil {
			return nil, err
		}
		plan, err := coverage.EvaluateMatrix(scn, benchObjectives, uniformMatrix(prefillPoIs))
		if err != nil {
			return nil, err
		}
		in.prefill = append(in.prefill, prefillEntry{scn: scn, plan: plan})
	}
	order := r.Perm(servePrefill)
	for b := 0; b+serveBatch <= len(order); b += serveBatch {
		var qs []plans.Query
		var fps []string
		for _, i := range order[b : b+serveBatch] {
			e := in.prefill[i]
			fp, err := coverage.ScenarioFingerprint(e.scn, benchObjectives)
			if err != nil {
				return nil, err
			}
			qs = append(qs, plans.Query{Scenario: e.scn, Objectives: benchObjectives, NoSpawn: true})
			fps = append(fps, string(fp))
		}
		body, err := json.Marshal(plans.QueryRequest{Queries: qs})
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, body)
		in.batches = append(in.batches, qs)
		in.wantFP = append(in.wantFP, fps)
	}
	jobSpec := func(use uint64, i int) jobs.Spec {
		// Targets within ±5% of uniform: every job is distinct, but the
		// checked jobs' costs stay close across seeds.
		phi := target(stream(seed, use<<32|uint64(i)), jobGrid*jobGrid, 0.05)
		scn, err := coverage.GridScenario(fmt.Sprintf("job-%d", i), jobGrid, jobGrid, phi)
		if err != nil {
			panic(err) // a 3×3 grid with a normalized target is always valid
		}
		return jobs.Spec{
			Scenario:   scn,
			Objectives: benchObjectives,
			Options:    coverage.Options{MaxIters: jobIters, Seed: 1},
			Restarts:   1,
		}
	}
	in.jobs = func(i int) jobs.Spec { return jobSpec(streamJobs, i) }
	for i := 0; i < serveFill; i++ {
		in.fill = append(in.fill, jobSpec(streamFill, i))
	}
	return in, nil
}

// serveRecord is one writer job.
type serveRecord struct {
	id      string
	spec    jobs.Spec
	plan    *coverage.Plan
	latency time.Duration
	span    int // the client span its server-side spans hang under
}

type serveRun struct {
	st  *stack
	in  *serveInputs
	tr  *tracer
	cli *http.Client

	mu        sync.Mutex
	attempted int
	errs      []string

	// Reader tallies, written by the reader goroutine only.
	hits, queries int
}

func (r *serveRun) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

func (r *serveRun) attempt() {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
}

// do sends one request and returns the body of a 2xx response.
func (r *serveRun) do(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, r.st.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := r.cli.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// writeJob submits job i, waits for it and fetches its plan.
func (r *serveRun) writeJob(i int) (*serveRecord, error) {
	spec := r.in.jobs(i)
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	raw, err := r.do(http.MethodPost, "/jobs", body)
	if err != nil {
		return nil, err
	}
	var view jobs.View
	if err := json.Unmarshal(raw, &view); err != nil {
		return nil, fmt.Errorf("submit response: %w", err)
	}
	if err := r.st.waitDone(view.ID); err != nil {
		return nil, err
	}
	raw, err = r.do(http.MethodGet, "/jobs/"+view.ID+"/plan", nil)
	if err != nil {
		return nil, err
	}
	plan, err := coverage.ReadPlan(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("job %s plan: %w", view.ID, err)
	}
	end := time.Now()
	span := r.tr.add(0, "client.job", start, end, map[string]float64{"job": float64(i)})
	return &serveRecord{id: view.ID, spec: spec, plan: plan, latency: end.Sub(start), span: span}, nil
}

// readBatch sends batch b and checks every result is a hit on the
// fingerprint asked for.
func (r *serveRun) readBatch(b int) (time.Duration, int, error) {
	start := time.Now()
	raw, err := r.do(http.MethodPost, "/plans:query", r.in.bodies[b])
	if err != nil {
		return 0, 0, err
	}
	var qr plans.QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		return 0, 0, fmt.Errorf("query response: %w", err)
	}
	end := time.Now()
	r.tr.add(0, "client.query", start, end, nil)
	want := r.in.wantFP[b]
	if len(qr.Results) != len(want) {
		return 0, 0, fmt.Errorf("batch %d: %d results for %d queries", b, len(qr.Results), len(want))
	}
	hits := 0
	for i, res := range qr.Results {
		if res.Status == plans.StatusHit && res.Fingerprint == want[i] && res.Plan != nil {
			hits++
		}
	}
	if hits != len(want) {
		return end.Sub(start), hits, fmt.Errorf("batch %d: %d of %d queries hit their fingerprint", b, hits, len(want))
	}
	return end.Sub(start), hits, nil
}

func runServe(seed uint64, window time.Duration, tr *tracer) (*result, error) {
	res := newResult("serve-mix")
	in, err := genServeInputs(seed)
	if err != nil {
		return nil, err
	}

	// Set-up: boot the stack and prefill the library, repeated; every
	// boot but the last is shut down again.
	var st *stack
	var setups []float64
	for begin := time.Now(); len(setups) < setupMin || time.Since(begin) < setupBudget; {
		if st != nil {
			if err := st.shutdown(); err != nil {
				return nil, fmt.Errorf("shutdown: %w", err)
			}
		}
		runtime.GC()
		start := time.Now()
		st, err = bootStack(in.prefill, tr.on)
		end := time.Now()
		if err != nil {
			return nil, fmt.Errorf("boot: %w", err)
		}
		tr.add(0, "setup.boot", start, end, nil)
		setups = append(setups, end.Sub(start).Seconds())
		// The heap one booted, prefilled stack holds, read on the first
		// boot: each later boot leaves some runtime caches behind, and
		// how many boots fit the budget depends on the machine.
		if len(setups) == 1 {
			res.e2e["heap_retained_mib"] = heapMiB()
		}
	}
	res.e2e["setup_s"] = median(setups)

	run := &serveRun{st: st, in: in, tr: tr, cli: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 4},
	}}
	defer run.cli.CloseIdleConnections()
	records, queryLat, busy := run.window(window)
	res.attempted += run.attempted
	for _, e := range run.errs {
		res.fail("%s", e)
	}
	if len(records) == 0 || len(queryLat) == 0 {
		res.fail("window completed %d jobs and %d queries", len(records), len(queryLat))
		return res, st.shutdown()
	}

	var planMs []float64
	for _, rec := range records {
		planMs = append(planMs, ms(rec.latency))
	}
	res.e2e["plan_p50_ms"] = median(planMs)
	res.layer["tail.plan_p99_ms"] = percentile(planMs, 99)
	res.e2e["query_p50_ms"] = median(queryLat)
	res.layer["tail.query_p99_ms"] = percentile(queryLat, 99)
	res.e2e["jobs_per_s"] = float64(len(records)) / busy.Seconds()
	res.notef("%d jobs and %d query batches in %.1f s; p99 plan %.4g ms, p99 query %.4g ms (exact-hit SLO 10 ms)",
		len(records), len(queryLat), busy.Seconds(), res.layer["tail.plan_p99_ms"], res.layer["tail.query_p99_ms"])

	// Bit-identity: the first jobs' plans against OptimizeBest in process.
	// The same solves, repeated for setupBudget, give solve_s.
	checked := records[:min(serveChecks, len(records))]
	var costs []float64
	for i, rec := range checked {
		res.attempted++
		a0 := totalAlloc()
		want, err := coverage.OptimizeBest(rec.spec.Scenario, rec.spec.Objectives, rec.spec.Options, rec.spec.Restarts)
		a1 := totalAlloc()
		if err != nil {
			res.fail("OptimizeBest for job %s: %v", rec.id, err)
			continue
		}
		if !samePlan(want, rec.plan) {
			res.fail("job %s plan (cost %v) differs from OptimizeBest (cost %v)", rec.id, rec.plan.Cost, want.Cost)
		}
		costs = append(costs, rec.plan.Cost)
		if i == 0 {
			res.e2e["alloc_mib"] = mib(a1 - a0)
		}
	}
	var solves []float64
	for begin := time.Now(); len(solves) < setupMin || time.Since(begin) < setupBudget; {
		spec := checked[len(solves)%len(checked)].spec
		d, err := tr.timeCall("coverage.optimize_best", func() error {
			_, err := coverage.OptimizeBest(spec.Scenario, spec.Objectives, spec.Options, spec.Restarts)
			return err
		})
		if err != nil {
			res.fail("OptimizeBest: %v", err)
			break
		}
		solves = append(solves, d.Seconds())
	}
	res.e2e["solve_s"] = median(solves)
	var sum float64
	for _, c := range costs {
		sum += c
	}
	res.e2e["final_cost"] = sum / float64(len(costs))

	if tr.on {
		if err := run.trace(res, records, queryLat); err != nil {
			return nil, errors.Join(err, st.shutdown())
		}
	}
	return res, st.shutdown()
}

// window runs the writer and the reader side by side for d and returns
// the writer's jobs, the reader's batch latencies (ms), and the time
// until both clients stopped.
func (r *serveRun) window(d time.Duration) ([]*serveRecord, []float64, time.Duration) {
	var wg sync.WaitGroup
	var records []*serveRecord
	var lat []float64
	start := time.Now()
	deadline := start.Add(d)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; time.Now().Before(deadline); i++ {
			r.attempt()
			rec, err := r.writeJob(i)
			if err != nil {
				r.fail("writer: %v", err)
				return
			}
			if err := checkStochastic(rec.plan); err != nil {
				r.fail("job %s plan: %v", rec.id, err)
			}
			records = append(records, rec)
		}
	}()
	go func() {
		defer wg.Done()
		for b := 0; time.Now().Before(deadline); b++ {
			r.attempt()
			dur, n, err := r.readBatch(b % len(r.in.bodies))
			r.hits += n
			r.queries += serveBatch
			if err != nil {
				r.fail("reader: %v", err)
				if dur == 0 {
					return
				}
				continue
			}
			lat = append(lat, ms(dur))
		}
	}()
	wg.Wait()
	return records, lat, time.Since(start)
}

// trace fills the per-layer rows of serve-mix.
func (r *serveRun) trace(res *result, records []*serveRecord, queryLat []float64) error {
	st := r.st
	var wait, run, puts, kib []float64
	for _, rec := range records {
		v, err := st.mgr.Get(rec.id)
		if err != nil {
			return err
		}
		st.mu.Lock()
		doneAt := st.doneAt[rec.id]
		st.mu.Unlock()
		if v.Started == nil {
			return fmt.Errorf("job %s has no start time", rec.id)
		}
		wait = append(wait, ms(v.Started.Sub(v.Created)))
		run = append(run, ms(doneAt.Sub(*v.Started)))
		ps := st.store.jobStat(rec.id)
		puts = append(puts, float64(ps.puts))
		kib = append(kib, float64(ps.bytes)/1024)
		r.tr.add(rec.span, "jobs.queued", v.Created, *v.Started, nil)
		r.tr.add(rec.span, "jobs.run", *v.Started, doneAt, nil)
	}
	res.layer["jobs.queue_wait_ms"] = median(wait)
	res.layer["jobs.run_ms"] = median(run)
	res.layer["jobs.ckpt_puts"] = median(puts)
	res.layer["jobs.ckpt_kib"] = median(kib)
	putMs, err := r.replayCheckpoints()
	if err != nil {
		return err
	}
	res.layer["jobs.ckpt_put_ms"] = putMs

	// The reader's batches again, in process.
	ctx := context.Background()
	direct, err := repeatMs(r.tr, "plans.query_batch", len(r.in.batches), func(i int) error {
		for _, q := range st.svc.QueryBatch(ctx, r.in.batches[i]) {
			if q.Status != plans.StatusHit {
				return fmt.Errorf("direct query: status %s", q.Status)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.layer["plans.query_direct_ms"] = direct
	res.layer["http.overhead_ms"] = median(queryLat) - direct
	res.layer["plans.hit_ratio"] = float64(r.hits) / float64(r.queries)

	reqs, non2xx, err := httpCounts(st.reg)
	if err != nil {
		return err
	}
	res.layer["http.requests"] = reqs
	res.layer["http.non2xx"] = non2xx

	if err := r.fillProbe(res); err != nil {
		return err
	}

	rec := records[0]
	return tracePersist(res, rec.spec.Scenario, rec.spec.Objectives, 0, rec.plan, r.tr)
}

// replayCheckpoints writes the recorded checkpoints, in order, through a
// jobs.FSStore in a fresh directory under the span directory and returns
// the median Put in ms. It replays for replayBudget, at least replayMin
// puts, and removes the directory afterwards.
func (r *serveRun) replayCheckpoints() (float64, error) {
	r.st.store.mu.Lock()
	blobs := r.st.store.blobs
	r.st.store.mu.Unlock()
	if len(blobs) == 0 {
		return 0, errors.New("no checkpoints recorded")
	}
	if err := os.MkdirAll(r.tr.dir, 0o755); err != nil {
		return 0, err
	}
	dir, err := os.MkdirTemp(r.tr.dir, "fsstore-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	fsStore, err := jobs.NewFSStore(dir)
	if err != nil {
		return 0, err
	}
	var times []float64
	begin := time.Now()
	for i := 0; i < len(blobs) && (i < replayMin || time.Since(begin) < replayBudget); i++ {
		b := blobs[i]
		d, err := r.tr.timeCall("jobs.fsstore_put", func() error { return fsStore.Put(b.name, b.data) })
		if err != nil {
			return 0, err
		}
		times = append(times, ms(d))
	}
	return median(times), nil
}

// fillProbe asks for serveFill unsolved problems, each twice in one
// batch, and counts the fill jobs the service spawns per missed
// fingerprint (singleflight makes it 1).
func (r *serveRun) fillProbe(res *result) error {
	var qs []plans.Query
	for _, spec := range r.in.fill {
		q := plans.Query{Scenario: spec.Scenario, Objectives: spec.Objectives, Options: spec.Options, Restarts: spec.Restarts}
		qs = append(qs, q, q)
	}
	fps := map[string]bool{}
	ids := map[string]bool{}
	for _, q := range r.st.svc.QueryBatch(context.Background(), qs) {
		if q.Status != plans.StatusScheduled && q.Status != plans.StatusPending {
			return fmt.Errorf("fill probe: status %s (%s)", q.Status, q.Error)
		}
		fps[q.Fingerprint] = true
		ids[q.JobID] = true
	}
	for id := range ids {
		if err := r.st.waitDone(id); err != nil {
			return fmt.Errorf("fill probe: %w", err)
		}
	}
	res.layer["plans.fill_jobs_per_miss"] = float64(len(ids)) / float64(len(fps))
	return nil
}

// httpCounts sums the middleware's request histogram counts, in total
// and for non-2xx statuses.
func httpCounts(reg *obs.Registry) (total, non2xx float64, err error) {
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		return 0, 0, err
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "http_request_duration_seconds_count{") {
			continue
		}
		labels, value, ok := strings.Cut(line, "} ")
		if !ok {
			return 0, 0, fmt.Errorf("metrics line %q", line)
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("metrics line %q: %w", line, err)
		}
		total += v
		if !strings.Contains(labels, `status="2`) {
			non2xx += v
		}
	}
	return total, non2xx, sc.Err()
}
