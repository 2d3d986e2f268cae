package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/serve"
)

// liveServer is one lifetime of the service under test: serve.New over a
// store directory, one worker, reached through one keep-alive loopback
// connection by one closed-loop client (the next request is sent only
// after the previous reply has been read).
type liveServer struct {
	srv    *serve.Server
	hs     *http.Server
	served chan struct{}
	client *http.Client
	base   string
}

func startServer(storeDir string, sc scale) (*liveServer, error) {
	srv, err := serve.New(serve.Config{
		Opts:     experiments.Options{Warps: sc.Warps, MaxCycles: maxCycles, Parallelism: 1},
		StoreDir: storeDir,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Close() // the listen error is the one to report
		return nil, err
	}
	ls := &liveServer{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		base: "http://" + ln.Addr().String(),
	}
	go func() {
		_ = ls.hs.Serve(ln) // always ErrServerClosed after stop
		close(ls.served)
	}()
	return ls, nil
}

// stop closes the connection and the listener, waits for the accept loop
// to end, and drains the server (which fsyncs the store).
func (ls *liveServer) stop() error {
	ls.client.CloseIdleConnections()
	_ = ls.hs.Close()
	<-ls.served
	return ls.srv.Close()
}

// arena keeps a pass's response bodies without a heap allocation per
// response, so holding them for the untimed checks does not change the
// garbage collector's pacing inside the timed region.
type arena struct{ buf []byte }

func (a *arena) readAll(r io.Reader) ([]byte, error) {
	start := len(a.buf)
	for {
		if len(a.buf) == cap(a.buf) {
			// Earlier bodies keep pointing into the old array, which
			// stays reachable through them.
			grown := make([]byte, len(a.buf), 2*cap(a.buf)+64<<10)
			copy(grown, a.buf)
			a.buf = grown
		}
		n, err := r.Read(a.buf[len(a.buf):cap(a.buf)])
		a.buf = a.buf[:len(a.buf)+n]
		if err == io.EOF {
			return a.buf[start:], nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// reply is one response kept for checking after the timer stops.
type reply struct {
	op   op
	code int
	body []byte
	err  error
}

// post sends one run request and reads the whole reply into the arena.
func (ls *liveServer) post(a *arena, body []byte) (int, []byte, error) {
	resp, err := ls.client.Post(ls.base+"/v1/runs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := a.readAll(resp.Body)
	return resp.StatusCode, b, err
}

// serveWorkload drives regless serve: serve_cold (every pass a fresh
// server over an empty store) and serve_warm (every pass a series of
// restarts over the store a fixture pass populated).
type serveWorkload struct {
	spec    workloadSpec
	ops     []op
	canon   []op
	sc      scale
	scratch string
	probe   bool
	warm    bool

	bodies map[op][]byte
	// expected[op] is the JSON of a direct Suite.Get of the same key;
	// probes skip it (the parent compares their digest with its own).
	expected map[op][]byte
	passes   int
	arena    arena
	replies  []reply
}

func newServeWorkload(spec workloadSpec, ops []op, sc scale, scratch string, probe bool) workload {
	return &serveWorkload{
		spec: spec, ops: ops, canon: canonicalOps(spec, sc), sc: sc,
		scratch: scratch, probe: probe, warm: spec.name == "serve_warm",
	}
}

func (w *serveWorkload) fixtureDir() string { return filepath.Join(w.scratch, "fixture") }

func (w *serveWorkload) setup() error {
	w.bodies = make(map[op][]byte, len(w.canon))
	for _, o := range w.canon {
		b, err := json.Marshal(serve.RunRequest{Bench: o.Bench, Scheme: string(o.Scheme), Capacity: o.Capacity})
		if err != nil {
			return err
		}
		w.bodies[o] = b
	}
	perPass := len(w.ops)
	if w.warm {
		perPass *= 4 * w.sc.Lifetimes
	}
	w.arena.buf = make([]byte, 0, perPass*3<<10)
	w.replies = make([]reply, 0, perPass)
	if w.probe {
		return nil
	}

	w.expected = make(map[op][]byte, len(w.canon))
	direct := experiments.NewSuite(experiments.Options{
		Warps: w.sc.Warps, Benchmarks: w.sc.Benches, MaxCycles: maxCycles, Parallelism: 1,
	})
	for _, o := range w.canon {
		r, err := direct.Get(o.Bench, o.Scheme, o.Capacity)
		if err != nil {
			return fmt.Errorf("direct %s: %w", o, err)
		}
		b, err := json.Marshal(directResult(r, w.sc.Warps))
		if err != nil {
			return err
		}
		w.expected[o] = b
	}
	if !w.warm {
		return nil
	}
	// Populate the store serve_warm reads: one cold pass, checked like
	// any other (cached must be false on every op).
	out := passOut{results: map[op][32]byte{}}
	w.reset()
	w.coldLifetime(nil, w.fixtureDir(), &out)
	w.check(&out, false)
	if out.failed > 0 {
		return fmt.Errorf("fixture pass: %d of %d ops failed: %v", out.failed, out.ops, out.errs)
	}
	return nil
}

// directResult is the payload the service must deliver for r: the repo's
// "every cached byte equals a fresh computation" contract.
func directResult(r *experiments.Run, warps int) serve.RunResult {
	return serve.RunResult{
		Bench: r.Bench, Scheme: string(r.Scheme), Capacity: r.Capacity,
		Warps: warps, SMs: 1,
		Stats: *r.Stats, Prov: r.Prov, Mem: r.Mem,
	}
}

func (w *serveWorkload) pass(tr *obs.Trace) passOut {
	out := passOut{results: make(map[op][32]byte, len(w.canon)), segMS: make([]float64, 0, cap(w.replies)+2*w.sc.Lifetimes)}
	w.passes++
	w.reset()
	if w.warm {
		out.meter.start()
		for life := 0; life < w.sc.Lifetimes; life++ {
			w.warmLifetime(tr, &out)
		}
		out.meter.stop()
		w.check(&out, true)
		return out
	}
	dir := filepath.Join(w.scratch, fmt.Sprintf("cold-%d-%d", os.Getpid(), w.passes))
	out.meter.start()
	ls := w.coldLifetime(tr, dir, &out)
	out.meter.stop()
	w.check(&out, false)
	if ls != nil {
		if n, err := ls.srv.Store().Verify(); err != nil || n != len(w.canon) {
			out.fail("store verify after pass: %d intact entries of %d, err %v", n, len(w.canon), err)
		}
	}
	if err := os.RemoveAll(dir); err != nil {
		out.fail("removing %s: %v", dir, err)
	}
	return out
}

// reset forgets the previous pass's replies.
func (w *serveWorkload) reset() {
	w.arena.buf = w.arena.buf[:0]
	w.replies = w.replies[:0]
}

// coldLifetime is one server lifetime over dir touching every key once.
func (w *serveWorkload) coldLifetime(tr *obs.Trace, dir string, out *passOut) *liveServer {
	ls := w.start(tr, dir, out, 1)
	if ls == nil {
		return nil
	}
	w.touchAll(tr, ls, out, true)
	w.stop(tr, ls, out)
	return ls
}

// start opens one server lifetime over dir (a segment of the pass); on
// failure the touches the lifetime would have made count as failed ops.
func (w *serveWorkload) start(tr *obs.Trace, dir string, out *passOut, touches int) *liveServer {
	sp := tr.Start(obs.Root, "server-start")
	t0 := time.Now()
	ls, err := startServer(dir, w.sc)
	out.seg(t0, false)
	tr.End(sp)
	if err != nil {
		out.ops += touches * len(w.ops)
		out.failed += touches * len(w.ops)
		out.errs = append(out.errs, "serve.New: "+err.Error())
		return nil
	}
	return ls
}

// stop ends a server lifetime (a segment of the pass).
func (w *serveWorkload) stop(tr *obs.Trace, ls *liveServer, out *passOut) {
	sp := tr.Start(obs.Root, "server-stop")
	t0 := time.Now()
	err := ls.stop()
	out.seg(t0, false)
	tr.End(sp)
	if err != nil {
		out.fail("server close: %v", err)
	}
}

// warmLifetime is one warm restart over the fixture store: every key
// once (a disk hit), then three more times (a hit in the job map).
func (w *serveWorkload) warmLifetime(tr *obs.Trace, out *passOut) {
	ls := w.start(tr, w.fixtureDir(), out, 4)
	if ls == nil {
		return
	}
	w.touchAll(tr, ls, out, true)
	for rep := 0; rep < 3; rep++ {
		w.touchAll(tr, ls, out, false)
	}
	w.stop(tr, ls, out)
}

// touchAll sends every op once, closed loop.
func (w *serveWorkload) touchAll(tr *obs.Trace, ls *liveServer, out *passOut, firstTouch bool) {
	for _, o := range w.ops {
		sp := obs.NoSpan
		if tr != nil {
			sp = tr.Start(obs.Root, "op "+o.String())
		}
		t0 := time.Now()
		code, body, err := ls.post(&w.arena, w.bodies[o])
		out.seg(t0, firstTouch)
		if tr != nil {
			tr.End(sp)
			if firstTouch && err == nil {
				graftServerTrace(tr, sp, ls, body)
			}
		}
		out.ops++
		w.replies = append(w.replies, reply{op: o, code: code, body: body, err: err})
	}
}

// check verifies the replies of a pass after its timer stopped.
func (w *serveWorkload) check(out *passOut, wantCached bool) {
	for _, rp := range w.replies {
		if rp.err != nil {
			out.fail("%s: %v", rp.op, rp.err)
			continue
		}
		if rp.code != http.StatusOK {
			out.fail("%s: HTTP %d: %s", rp.op, rp.code, bytes.TrimSpace(rp.body))
			continue
		}
		var st serve.RunStatus
		if err := json.Unmarshal(rp.body, &st); err != nil {
			out.fail("%s: reply does not parse: %v", rp.op, err)
			continue
		}
		if st.Status != "done" {
			out.fail("%s: status %q: %s", rp.op, st.Status, st.Error)
			continue
		}
		if st.Cached != wantCached {
			out.fail("%s: cached=%v, want %v", rp.op, st.Cached, wantCached)
			continue
		}
		if exp, ok := w.expected[rp.op]; ok && !bytes.Equal(st.Result, exp) {
			out.fail("%s: result differs from a direct Suite.Get of the same key", rp.op)
			continue
		}
		d := sha256.Sum256(st.Result)
		if prev, seen := out.results[rp.op]; seen {
			if prev != d {
				out.fail("%s: two replies in one pass differ", rp.op)
			}
			continue
		}
		var res serve.RunResult
		if err := json.Unmarshal(st.Result, &res); err != nil {
			out.fail("%s: result does not parse: %v", rp.op, err)
			continue
		}
		out.results[rp.op] = d
		out.simCycles += res.Stats.Cycles
	}
}

// finish verifies the fixture store after the last pass (each serve_cold
// pass verified its own store before removing it).
func (w *serveWorkload) finish() []string {
	if !w.warm || w.probe {
		return nil
	}
	ls, err := startServer(w.fixtureDir(), w.sc)
	if err != nil {
		return []string{"reopening fixture store: " + err.Error()}
	}
	var errs []string
	if n, err := ls.srv.Store().Verify(); err != nil || n != len(w.canon) {
		errs = append(errs, fmt.Sprintf("store verify at end of run: %d intact entries of %d, err %v", n, len(w.canon), err))
	}
	if err := ls.stop(); err != nil {
		errs = append(errs, "server close: "+err.Error())
	}
	return errs
}

// graftServerTrace fetches the span tree the server published for the
// run a reply names and hangs it under the op's span, so one trace shows
// the client's view and the layers under it. Server spans count from the
// job's admission; the op's start stands in for that instant.
func graftServerTrace(tr *obs.Trace, sp obs.SpanID, ls *liveServer, reply []byte) {
	var st serve.RunStatus
	if json.Unmarshal(reply, &st) != nil || st.ID == "" {
		return
	}
	resp, err := ls.client.Get(ls.base + "/v1/runs/" + st.ID + "/trace")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var doc struct {
		Root *obs.Node `json:"root"`
	}
	if json.NewDecoder(resp.Body).Decode(&doc) != nil || doc.Root == nil {
		return
	}
	doc.Root.Name = "server-job" // the server calls it "run", as the suite calls its cycle loop
	graft(tr, sp, doc.Root, tr.StartOf(sp))
}

func graft(tr *obs.Trace, parent obs.SpanID, n *obs.Node, base int64) {
	id := tr.StartAt(parent, n.Name, base+n.StartUS)
	for _, c := range n.Children {
		graft(tr, id, c, base)
	}
	tr.EndAt(id, base+n.StartUS+n.DurUS)
}
