package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"regexp"
	goruntime "runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kset/internal/adversary"
	"kset/internal/algo"
	"kset/internal/service"
	"kset/internal/stats"
)

// svcWorkload is one svc_* workload: the ksetd service with its default
// configuration behind its HTTP handler on a loopback listener, driven
// by closed-loop clients in the same process. An operation is a session.
type svcWorkload struct {
	name      string
	transport string // SessionSpec.Transport of every session
	// warmup is the fixed number of sessions a set-up runs before timing.
	warmup, smokeWarmup int
}

const (
	svcBatch  = 8 // sessions per POST
	verifyLen = 12
	// Poll back-off between passes over the outstanding ids that saw
	// nothing finish.
	pollMin = 200 * time.Microsecond
	pollMax = 2 * time.Millisecond
	// The traced run re-executes every replayEvery-th submitted spec,
	// wrapping around, for as long as its time lasts: about 1 in 20 on
	// svc_inproc. The step shares no factor with the periods of the spec
	// mix, so the sample covers every combination.
	replayEvery = 19
)

var svcFamilies = []string{"rooted", "single_source", "lowerbound", "partition_merge", "vertex_stable", "complete"}

func (w svcWorkload) Name() string { return w.name }

// clients is the number of closed-loop clients, and so of connections:
// 2, or fewer on a machine with fewer processors.
func clients() int { return min(2, goruntime.NumCPU()) }

// sessionSpec generates session i's request from the seed. The mix
// follows ksetload's: six adversary families, n from 4 to 16, and every
// fourth session graph approximate agreement.
func (w svcWorkload) sessionSpec(seed int64, i int) service.SessionSpec {
	n := 4 + i%13
	spec := service.SessionSpec{
		N:         n,
		Family:    svcFamilies[i%len(svcFamilies)],
		Seed:      adversary.MixSeed(seed, i),
		Noisy:     i % 5,
		Roots:     1 + i%3,
		Transport: w.transport,
		Algorithm: algo.KSet,
	}
	if i%4 == 3 {
		spec.Algorithm = algo.Approx
	}
	return spec
}

// instance is one service under test, with the tally of everything it
// was asked to do, which its /metrics counters must equal in the end.
type instance struct {
	svc  *service.Service
	srv  *http.Server
	base string
	hc   *http.Client

	submitted, done, rounds atomic.Int64
}

func startInstance() (*instance, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	in := &instance{svc: service.New(service.Config{}), base: "http://" + ln.Addr().String()}
	in.srv = &http.Server{Handler: in.svc.Handler()}
	go in.srv.Serve(ln) // returns when close() closes the server
	in.hc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: clients(), MaxIdleConnsPerHost: clients()}}
	resp, err := in.hc.Get(in.base + "/healthz")
	if err != nil {
		in.close()
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		in.close()
		return nil, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return in, nil
}

func (in *instance) close() {
	in.hc.CloseIdleConnections()
	in.srv.Close()
	in.svc.Close()
}

// roundTrip does one request and returns the status and the whole body.
func (in *instance) roundTrip(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, in.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := in.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// submit POSTs one batch.
func (in *instance) submit(specs []service.SessionSpec) ([]service.SubmitResult, error) {
	body, err := json.Marshal(service.BatchRequest{Sessions: specs})
	if err != nil {
		return nil, err
	}
	in.submitted.Add(int64(len(specs)))
	code, raw, err := in.roundTrip(http.MethodPost, "/v1/sessions", body)
	if err != nil {
		return nil, err
	}
	var br service.BatchResponse
	if err := json.Unmarshal(raw, &br); err != nil || len(br.Results) != len(specs) {
		return nil, fmt.Errorf("submit: status %d with %d results for %d specs (%v)", code, len(br.Results), len(specs), err)
	}
	return br.Results, nil
}

// get polls one session.
func (in *instance) get(id string) (service.Session, error) {
	var sess service.Session
	code, raw, err := in.roundTrip(http.MethodGet, "/v1/sessions/"+id, nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("session %s: status %d", id, code)
	}
	if err == nil {
		err = json.Unmarshal(raw, &sess)
	}
	return sess, err
}

func terminal(status string) bool { return status != "queued" && status != "running" }

// checkSession is the output check of one session: it must be done,
// within its agreement bound, with every process decided.
func (in *instance) checkSession(sess service.Session) error {
	if sess.Status != "done" || sess.Result == nil {
		return fmt.Errorf("session %s ended %s: %s", sess.ID, sess.Status, sess.Error)
	}
	in.done.Add(1)
	in.rounds.Add(int64(sess.Result.Rounds))
	if !sess.Result.KBound {
		return fmt.Errorf("session %s violated its agreement bound: %v with MinK %d", sess.ID, sess.Result.Distinct, sess.Result.MinK)
	}
	if !sess.Result.AllDecided {
		return fmt.Errorf("session %s left processes undecided", sess.ID)
	}
	return nil
}

// loadStats are the samples of one phase of load.
type loadStats struct {
	latMs    []float64 // batch POST sent -> first poll that saw the session terminal
	rounds   int64
	polls    int64
	submitMs []float64 // one POST
	getNs    int64     // all GETs
	wall     time.Duration
}

func (s *loadStats) merge(o *loadStats) {
	s.latMs = append(s.latMs, o.latMs...)
	s.rounds += o.rounds
	s.polls += o.polls
	s.submitMs = append(s.submitMs, o.submitMs...)
	s.getNs += o.getNs
}

// phase says which sessions one phase of load submits: indices from
// first on, limit of them (0 = no limit), and none after deadline
// (zero = no deadline).
type phase struct {
	first    int
	limit    int
	deadline time.Time
}

// load runs the closed loop: each client POSTs a batch, polls all its
// outstanding ids round-robin until every one is terminal, then POSTs
// the next batch. It returns the samples and how many specs it used.
func (w svcWorkload) load(cfg *config, in *instance, ph phase, res *result) (*loadStats, int) {
	var (
		mu    sync.Mutex
		total loadStats
		taken atomic.Int64
		wg    sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var st loadStats
			var attempted int
			var failures []error
			for ph.deadline.IsZero() || time.Now().Before(ph.deadline) {
				lo := int(taken.Add(svcBatch)) - svcBatch
				size := svcBatch
				if ph.limit > 0 {
					size = min(svcBatch, ph.limit-lo)
				}
				if size <= 0 {
					break
				}
				specs := make([]service.SessionSpec, size)
				for k := range specs {
					specs[k] = w.sessionSpec(cfg.seed, ph.first+lo+k)
				}
				attempted += size
				failures = append(failures, w.batch(in, specs, &st)...)
			}
			res.attempt(attempted)
			for _, err := range failures {
				res.fail("%v", err)
			}
			mu.Lock()
			total.merge(&st)
			mu.Unlock()
		}()
	}
	wg.Wait()
	total.wall = time.Since(start)
	used := int(taken.Load())
	if ph.limit > 0 {
		used = min(used, ph.limit)
	}
	return &total, used
}

// batch submits one batch and polls it to completion; it returns one
// error per failed session.
func (w svcWorkload) batch(in *instance, specs []service.SessionSpec, st *loadStats) []error {
	var failures []error
	sent := time.Now()
	results, err := in.submit(specs)
	st.submitMs = append(st.submitMs, time.Since(sent).Seconds()*1e3)
	if err != nil {
		for range specs {
			failures = append(failures, err)
		}
		return failures
	}
	var outstanding []string
	for _, r := range results {
		if r.Error != "" {
			failures = append(failures, fmt.Errorf("submission refused: %s", r.Error))
			continue
		}
		outstanding = append(outstanding, r.ID)
	}
	backoff := pollMin
	for len(outstanding) > 0 {
		progressed := false
		for k := 0; k < len(outstanding); {
			t0 := time.Now()
			sess, err := in.get(outstanding[k])
			st.getNs += int64(time.Since(t0))
			st.polls++
			if err == nil && !terminal(sess.Status) {
				k++
				continue
			}
			if err == nil {
				err = in.checkSession(sess)
			}
			if err != nil {
				failures = append(failures, err)
			} else {
				st.latMs = append(st.latMs, time.Since(sent).Seconds()*1e3)
				st.rounds += int64(sess.Result.Rounds)
			}
			outstanding = append(outstanding[:k], outstanding[k+1:]...)
			progressed = true
		}
		if progressed {
			backoff = pollMin
			continue
		}
		time.Sleep(backoff)
		backoff = min(2*backoff, pollMax)
	}
	return failures
}

// verify is the untimed verification of a set-up: a batch covering
// every family and both algorithms goes through the HTTP API, and each
// finished session must pass the output check and equal the lockstep
// simulator on the same spec, decision for decision.
func (w svcWorkload) verify(cfg *config, in *instance) error {
	specs := make([]service.SessionSpec, verifyLen)
	for i := range specs {
		specs[i] = w.sessionSpec(adversary.MixSeed(cfg.seed, -1), i)
	}
	results, err := in.submit(specs)
	if err != nil {
		return err
	}
	for _, r := range results {
		if r.Error != "" {
			return fmt.Errorf("submission refused: %s", r.Error)
		}
		var sess service.Session
		for {
			if sess, err = in.get(r.ID); err != nil {
				return err
			}
			if terminal(sess.Status) {
				break
			}
			time.Sleep(pollMax)
		}
		if err := in.checkSession(sess); err != nil {
			return err
		}
		if err := sameAsSimulator(sess); err != nil {
			return fmt.Errorf("session %s (%s/%s n=%d): %w", sess.ID, sess.Spec.Algorithm, sess.Spec.Family, sess.Spec.N, err)
		}
	}
	return nil
}

var metricLine = regexp.MustCompile(`(?m)^(ksetd_[a-z_]+) (\d+)$`)

// scrape reads the unlabeled counters of /metrics.
func (in *instance) scrape() (map[string]int64, error) {
	_, raw, err := in.roundTrip(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, m := range metricLine.FindAllStringSubmatch(string(raw), -1) {
		v, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("metric %s: %w", m[1], err)
		}
		out[m[1]] = v
	}
	return out, nil
}

// crossCheck requires the service's own counters to equal the clients'
// tally, as ksetload's service smoke does.
func (in *instance) crossCheck() (map[string]int64, error) {
	got, err := in.scrape()
	if err != nil {
		return nil, err
	}
	want := map[string]int64{
		"ksetd_sessions_submitted_total": in.submitted.Load(),
		"ksetd_sessions_completed_total": in.done.Load(),
		"ksetd_rounds_total":             in.rounds.Load(),
		"ksetd_sessions_rejected_total":  0,
		"ksetd_sessions_shed_total":      0,
		"ksetd_sessions_failed_total":    0,
		"ksetd_sessions_crashed_total":   0,
		"ksetd_kbound_violations_total":  0,
	}
	for name, w := range want {
		if got[name] != w {
			return got, fmt.Errorf("/metrics reports %s = %d, the clients counted %d", name, got[name], w)
		}
	}
	return got, nil
}

// queueProbe measures queue wait under load from inside the process: it
// submits one session at a time straight to the Service and watches for
// the first status other than queued. It runs until stop is closed.
func (w svcWorkload) queueProbe(cfg *config, in *instance, stop <-chan struct{}, res *result) []float64 {
	var waitMs []float64
	probeSeed := adversary.MixSeed(cfg.seed, -2)
	for i := 0; ; i++ {
		select {
		case <-stop:
			return waitMs
		case <-time.After(5 * time.Millisecond):
		}
		in.submitted.Add(1)
		r := in.svc.Submit([]service.SessionSpec{w.sessionSpec(probeSeed, i)})[0]
		t0 := time.Now()
		var err error
		if r.Error != "" {
			err = fmt.Errorf("probe submission refused: %s", r.Error)
		}
		queued := true
		for err == nil {
			sess, ok := in.svc.Get(r.ID)
			if !ok {
				err = fmt.Errorf("probe session %s vanished", r.ID)
				break
			}
			if queued && sess.Status != "queued" {
				queued = false
				waitMs = append(waitMs, time.Since(t0).Seconds()*1e3)
			}
			if terminal(sess.Status) {
				err = in.checkSession(sess)
				break
			}
			if queued {
				time.Sleep(50 * time.Microsecond)
			} else {
				time.Sleep(pollMin)
			}
		}
		res.attempt(1)
		if err != nil {
			res.fail("%v", err)
		}
	}
}

// Measure implements workload.
func (w svcWorkload) Measure(cfg *config) (*result, error) {
	res := &result{}
	warmup := w.warmup
	if cfg.smoke {
		warmup = w.smokeWarmup
	}
	var in *instance
	var next int
	// One set-up: service and listener up, the verification batch, then
	// the fixed warm-up through the same client loop. The instance of
	// the last set-up is the one measured.
	setupS, err := medianSetup(cfg, func(last bool) error {
		inst, err := startInstance()
		if err != nil {
			return err
		}
		if err := w.verify(cfg, inst); err != nil {
			inst.close()
			return fmt.Errorf("verification batch: %w", err)
		}
		warm := &result{}
		w.load(cfg, inst, phase{limit: warmup}, warm)
		if warm.Failed > 0 {
			inst.close()
			return fmt.Errorf("warm-up: %d of %d sessions failed: %s", warm.Failed, warm.Attempted, warm.failures[0])
		}
		if !last {
			inst.close()
			return nil
		}
		in, next = inst, warmup
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer in.close()
	window := time.Duration(cfg.seconds * float64(time.Second))

	if !cfg.trace {
		st, _ := w.load(cfg, in, phase{first: next, deadline: time.Now().Add(window)}, res)
		if _, err := in.crossCheck(); err != nil {
			res.fail("%v", err)
		}
		v := map[string]float64{"setup_s": setupS}
		st.endToEnd(v)
		res.setMetrics(endToEnd, v)
		return res, nil
	}

	// Traced run, in three parts: load as in the untraced run, as the
	// reference the overhead is measured against; the same load with the
	// in-process queue probe beside it; then, with the service idle, a
	// sample of the submitted specs re-executed through decorated layers.
	ref, used := w.load(cfg, in, phase{first: next, deadline: time.Now().Add(window / 3)}, res)
	next += used

	stop := make(chan struct{})
	probed := make(chan []float64)
	go func() { probed <- w.queueProbe(cfg, in, stop, res) }()
	mem := startMemWindow()
	st, used := w.load(cfg, in, phase{first: next, deadline: time.Now().Add(window / 3)}, res)
	close(stop)
	waitMs := <-probed
	extra := map[string]float64{"bench.samples": float64(len(st.latMs))}
	mem.finish(len(st.latMs), extra)
	counters, err := in.crossCheck()
	if err != nil {
		res.fail("%v", err)
	}

	tr := newTracing()
	var replayMs []float64
	deadline := time.Now().Add(window / 3)
	for k := 0; k < used && (len(replayMs) < 2 || time.Now().Before(deadline)); k++ {
		i := next + k*replayEvery%used
		res.attempt(1)
		t0 := time.Now()
		if err := replaySession(w.sessionSpec(cfg.seed, i), i, tr); err != nil {
			res.fail("replay of session spec %d: %v", i, err)
			continue
		}
		replayMs = append(replayMs, time.Since(t0).Seconds()*1e3)
	}
	tr.rec.end(tr.window)

	if len(st.latMs) > 0 {
		sessions := float64(len(st.latMs))
		p50 := stats.Median(st.latMs)
		extra["service.submit_ms"] = stats.Mean(st.submitMs)
		extra["service.get_us"] = div(float64(st.getNs), float64(st.polls)) / 1e3
		extra["service.polls_per_session"] = float64(st.polls) / sessions
		extra["service.rounds_per_session"] = float64(st.rounds) / sessions
		extra["service.session_p95_ms"] = stats.Percentile(st.latMs, 95)
		extra["service.session_p99_ms"] = stats.Percentile(st.latMs, 99)
		extra["service.shed_total"] = float64(counters["ksetd_sessions_shed_total"])
		residual := p50
		if len(waitMs) > 0 {
			extra["service.queue_wait_ms"] = stats.Median(waitMs)
			residual -= extra["service.queue_wait_ms"]
		}
		if len(replayMs) > 0 {
			residual -= stats.Median(replayMs)
		}
		extra["service.residual_ms"] = residual
		if len(ref.latMs) > 0 {
			r := float64(len(ref.latMs)) / ref.wall.Seconds()
			extra["bench.trace_overhead_pct"] = 100 * (r - sessions/st.wall.Seconds()) / r
		}
	}
	if err := finishTrace(cfg, w.name, tr, extra, res); err != nil {
		return nil, err
	}
	return res, nil
}

// endToEnd fills the end-to-end values from a phase of load.
func (s *loadStats) endToEnd(v map[string]float64) {
	if len(s.latMs) == 0 {
		return
	}
	v["sessions_per_s"] = float64(len(s.latMs)) / s.wall.Seconds()
	v["session_p50_ms"] = stats.Median(s.latMs)
	v["rounds_per_s"] = float64(s.rounds) / s.wall.Seconds()
}
