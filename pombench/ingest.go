package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/workloads"
)

const (
	// ingestSession is one session's trace: warm-up plus measured
	// records, uploaded once and simulated to its target.
	ingestSession = 1 << 20
	ingestWarmup  = 1 << 18
	// postRecords is one POST body: 2048 records, 32 KiB of POMTRC01.
	postRecords = 2048
	// minSessions makes every run compare at least two sessions.
	minSessions = 2
	// metricsEvery is how many POSTs a traced session sends between
	// samples of GET /sessions/{id}/metrics.
	metricsEvery  = 32
	ingestProfile = "streamcluster"
)

// ingestRig is an in-process pomsimd: a server.Server on a loopback
// listener and a one-connection client.
type ingestRig struct {
	stopOnce sync.Once
	stopErr  error
	srv      *server.Server
	hs       *http.Server
	served   chan error
	client   *http.Client
	base     string
}

func startRig() (*ingestRig, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	// A generous enqueue wait: a closed-loop client is throttled by the
	// queue, and a host stall should slow it down, not refuse it.
	srv := server.New(server.Config{EnqueueWait: 5 * time.Second, MaxIngestRecords: -1})
	r := &ingestRig{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		base:   "http://" + ln.Addr().String(),
	}
	go func() { r.served <- r.hs.Serve(ln) }()
	return r, nil
}

// stop shuts the HTTP server and the simulation service down and waits
// for both. Safe to call more than once.
func (r *ingestRig) stop() error {
	r.stopOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := r.hs.Shutdown(ctx)
		if serr := <-r.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		r.srv.Close()
		r.client.CloseIdleConnections()
		r.stopErr = err
	})
	return r.stopErr
}

// do sends one request and decodes a JSON reply into v (when non-nil).
// Any status from 300 up is an error.
func (r *ingestRig) do(method, path string, body []byte, v any) error {
	req, err := http.NewRequest(method, r.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if v != nil {
		if err := json.Unmarshal(raw, v); err != nil {
			return fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return nil
}

func (r *ingestRig) create(seed uint64) (string, error) {
	req, err := json.Marshal(server.CreateRequest{
		Workload: ingestProfile, Mode: string(core.POMTLB), Seed: seed,
		WarmupRefs: ingestWarmup, MaxRefs: ingestSession - ingestWarmup,
	})
	if err != nil {
		return "", err
	}
	var reply struct {
		ID string `json:"id"`
	}
	if err := r.do(http.MethodPost, "/sessions", req, &reply); err != nil {
		return "", err
	}
	return reply.ID, nil
}

func (r *ingestRig) metrics(id string) (server.SessionMetrics, error) {
	var m server.SessionMetrics
	err := r.do(http.MethodGet, "/sessions/"+id+"/metrics", nil, &m)
	return m, err
}

// encodeBodies splits the records into POMTRC01 POST bodies.
func encodeBodies(recs []trace.Record) ([][]byte, error) {
	var bodies [][]byte
	for i := 0; i < len(recs); i += postRecords {
		b, err := encodeRecords(recs[i:min(i+postRecords, len(recs))])
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, b)
	}
	return bodies, nil
}

// ingestSetup starts a rig, generates and encodes the trace and creates
// the first session: everything before the first measured POST.
func ingestSetup(o runOpts) (*ingestRig, [][]byte, string, time.Duration, error) {
	p, ok := workloads.ByName(ingestProfile)
	if !ok {
		return nil, nil, "", 0, fmt.Errorf("%s profile missing", ingestProfile)
	}
	rig, err := startRig()
	if err != nil {
		return nil, nil, "", 0, err
	}
	bodies, err := encodeBodies(trace.Collect(p.Generator(core.DefaultConfig().Cores, o.seed), ingestSession))
	if err != nil {
		return nil, nil, "", 0, errors.Join(err, rig.stop())
	}
	a := time.Now()
	id, err := rig.create(o.seed)
	if err != nil {
		return nil, nil, "", 0, errors.Join(err, rig.stop())
	}
	return rig, bodies, id, time.Since(a), nil
}

// runIngest runs ingest-stream: sessions of a pre-encoded streamcluster
// trace fed over loopback HTTP by a closed-loop client, one POST in
// flight at a time.
func runIngest(ctx context.Context, o runOpts) (*outcome, error) {
	out := newOutcome()
	var setups, createMs []float64
	setUp := func() (*ingestRig, [][]byte, string, error) {
		t0 := time.Now()
		r, b, sid, create, err := ingestSetup(o)
		t1 := time.Now()
		if err != nil {
			return nil, nil, "", fmt.Errorf("set-up: %w", err)
		}
		o.tr.interval(0, 0, "setup", t0, t1, 0)
		setups = append(setups, t1.Sub(t0).Seconds())
		createMs = append(createMs, float64(create.Nanoseconds())/1e6)
		return r, b, sid, nil
	}
	// The first set-up is the one measured. The others run between
	// sessions at even marks of the measured phase, so setup_s samples
	// the host across the run, and are stopped again.
	extraSetUp := func() error {
		r, _, _, err := setUp()
		if err != nil {
			return err
		}
		err = r.stop()
		runtime.GC() // collect the discarded trace before timing resumes
		return err
	}
	rig, bodies, id, err := setUp()
	if err != nil {
		return nil, err
	}
	defer rig.stop()

	var (
		postMs, sessRates, tracedRates, plainRates, depth []float64
		first                                             *core.Result
		heap                                              float64
		rejQueue, rejRate                                 uint64
	)
	var busy time.Duration // time inside the sessions, without the later set-ups
	deadline := o.deadline()
	start := time.Now()
	mark := deadline.Sub(start) / setupReps
	for s := 0; ; s++ {
		if s > 0 {
			if len(setups) < setupReps && time.Since(start) >= time.Duration(len(setups))*mark {
				if err := extraSetUp(); err != nil {
					return nil, err
				}
			}
			a := time.Now()
			var err error
			id, err = rig.create(o.seed)
			out.op("create session", err)
			if err != nil {
				return nil, err
			}
			createMs = append(createMs, float64(time.Since(a).Nanoseconds())/1e6)
		}
		traced := o.trace && s%2 == 1
		sessStart := time.Now()
		root := 0
		if traced {
			root = o.tr.interval(s+1, 0, "session", sessStart, sessStart, ingestSession)
		}
		for k, body := range bodies {
			a := time.Now()
			err := rig.do(http.MethodPost, "/sessions/"+id+"/records", body, nil)
			b := time.Now()
			out.op("POST records", err)
			ms := float64(b.Sub(a).Nanoseconds()) / 1e6
			if err != nil {
				ms = math.Inf(1) // a refused or failed POST misses any latency limit
			}
			postMs = append(postMs, ms)
			if traced {
				o.tr.interval(s+1, root, "POST /sessions/{id}/records", a, b, postRecords)
				if k%metricsEvery == metricsEvery-1 {
					m, err := rig.metrics(id)
					out.op("GET metrics", err)
					depth = append(depth, float64(m.QueueDepth))
				}
			}
		}
		err := rig.do(http.MethodPost, "/sessions/"+id+"/finish", nil, nil)
		out.op("finish session", err)
		m, err := awaitSession(ctx, rig, id)
		sessEnd := time.Now()
		out.op("session done", err)
		if err != nil {
			return nil, err
		}
		o.tr.end(root, sessEnd)
		busy += sessEnd.Sub(sessStart)
		rate := ingestSession / sessEnd.Sub(sessStart).Seconds()
		sessRates = append(sessRates, rate)
		if traced {
			tracedRates = append(tracedRates, rate)
		} else {
			plainRates = append(plainRates, rate)
		}
		rejQueue += m.RejectedQueue
		rejRate += m.RejectedRate
		res := m.Result
		out.check("session accounting", res.CheckAccounting())
		out.check("session committed its target", errIf(m.Committed != ingestSession || m.Ingested != ingestSession,
			"committed %d, ingested %d, want %d", m.Committed, m.Ingested, ingestSession))
		if first == nil {
			first = &res
		} else {
			out.check("sessions repeat exactly", errIf(res != *first, "session %d result differs from session 0", s))
		}
		last := s+1 >= minSessions && time.Now().After(deadline)
		if last {
			heap = liveHeapMB() // the finished session and its trace are still live
		}
		err = rig.do(http.MethodDelete, "/sessions/"+id, nil, nil)
		out.op("delete session", err)
		if last {
			break
		}
	}
	for len(setups) < setupReps { // a run too short to reach the later marks
		if err := extraSetUp(); err != nil {
			return nil, err
		}
	}
	if err := rig.stop(); err != nil {
		return nil, err
	}

	// Offline parity: the decoded upload through core.System.Run must
	// reproduce the session's Result field for field.
	recs, err := decodeBodies(bodies)
	if err != nil {
		return nil, err
	}
	cfg := ingestConfig(o.seed)
	offline, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	a := time.Now()
	want, err := offline.Run(ctx, trace.NewReplay(recs), ingestProfile)
	offlineRate := ingestSession / time.Since(a).Seconds()
	out.check("offline run", err)
	out.check("HTTP session equals offline System.Run", errIf(want != *first, "session result diverges from offline Run"))
	out.check("offline invariants", offline.CheckInvariants())
	out.notef("sim digest (one %d-record session): %s", ingestSession, simDigest(*first))
	out.notef("streamcluster has no measured reference for the pom-tlb scheme in the repository; simulated cycles are unvalidated")
	out.notef("%d sessions, %d POSTs; rec_per_s is the first quartile of per-session rates; post_ms_p50 and post_ms_p99 are the op latencies below", len(sessRates), len(postMs))

	if !o.trace {
		setOpMetrics(out, postMs, sessRates, busy, float64(len(sessRates)*ingestSession), setups, heap)
		return out, nil
	}
	out.set("server.create_ms", median(createMs))
	out.set("server.queue_depth_mean", mean(depth))
	out.set("server.rejected_queue", float64(rejQueue))
	out.set("server.rejected_rate", float64(rejRate))
	out.set("server.overhead_frac", 1-median(sessRates)/offlineRate)
	out.set("server.post_ms_p50", quantileDone(postMs, 0.5))
	out.set("server.post_ms_p99", quantileDone(postMs, 0.99))
	if len(postMs) < 1000 {
		out.notef("only %d POSTs: server.post_ms_p99 has fewer than 10 POSTs beyond it", len(postMs))
	}
	out.set("bench.trace_overhead", median(tracedRates)-median(plainRates))
	// A warmed offline system over the same records stands in for the
	// session's, timed window by window.
	if err := standaloneLayers(ctx, o, out, ingestConfig(o.seed), nil, trace.NewReplay(recs),
		ingestWarmup, 16, opRecords, recs[:replayRecords], vmOne); err != nil {
		return nil, err
	}
	resultLayers(out, *first)
	idleLayers(out, "sweep.")
	return out, nil
}

// ingestConfig is the machine a session runs: what server.CreateRequest
// resolves to for the benchmark's session.
func ingestConfig(seed uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Mode = core.POMTLB
	cfg.Seed = seed
	cfg.WarmupRefs = ingestWarmup
	cfg.MaxRefs = ingestSession - ingestWarmup
	return cfg
}

// awaitSession polls a finished upload's metrics until the worker is
// done.
func awaitSession(ctx context.Context, rig *ingestRig, id string) (server.SessionMetrics, error) {
	give := time.Now().Add(60 * time.Second)
	for {
		m, err := rig.metrics(id)
		if err != nil {
			return m, err
		}
		switch m.State {
		case "done":
			return m, nil
		case "failed", "aborted":
			return m, fmt.Errorf("session %s %s: %s", id, m.State, m.Error)
		}
		if time.Now().After(give) {
			return m, fmt.Errorf("session %s still %s after 60s", id, m.State)
		}
		select {
		case <-ctx.Done():
			return m, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// decodeBodies reads the POST bodies back into records.
func decodeBodies(bodies [][]byte) ([]trace.Record, error) {
	var recs []trace.Record
	for _, b := range bodies {
		var err error
		if recs, err = decodeRecords(recs, b); err != nil {
			return nil, err
		}
	}
	return recs, nil
}

// mean returns the arithmetic mean, 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
