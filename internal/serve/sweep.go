package serve

// Sweeps: a grid of runs submitted, polled and rendered as one.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"

	"repro/internal/experiments"
)

type sweep struct {
	id   string
	jobs []*job
}

// expand canonicalizes the sweep's cells in deterministic grid order —
// all of them before anything is admitted, so a bad cell rejects the sweep.
func (s *Server) expand(req SweepRequest) ([]admitted, error) {
	if len(req.Benchmarks) == 0 {
		return nil, fmt.Errorf("sweep names no benchmarks")
	}
	if len(req.Schemes) == 0 {
		return nil, fmt.Errorf("sweep names no schemes")
	}
	caps := req.Capacities
	if len(caps) == 0 {
		caps = []int{0} // KeyFor resolves 0 to the scheme's default
	}
	var cells []admitted
	for _, b := range req.Benchmarks {
		for _, sc := range req.Schemes {
			for _, c := range caps {
				a, err := s.resolve(RunRequest{Bench: b, Scheme: sc, Capacity: c})
				if err != nil {
					return nil, err
				}
				cells = append(cells, a)
			}
		}
	}
	return cells, nil
}

func (s *Server) handlePostSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	body, err := readBody(w, r)
	if err == nil {
		err = decodeStrict(body.Bytes(), &req)
		putBody(body)
	}
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "bad sweep request: %v", err)
		return
	}
	cells, err := s.expand(req)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	budget, err := s.budgetFor(r)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	client := clientOf(r)
	reqID := r.Header.Get(headerRequestID)
	var jobs, created []*job
	for _, a := range cells {
		j, fresh, err := s.submit(a, client, reqID, budget)
		if err != nil {
			// Admission itself can still refuse a later cell (queue full,
			// breaker open), and then the sweep is refused whole: the
			// jobs it created for earlier cells do not run for nobody.
			for _, c := range created {
				c.abandonIfOrphan()
			}
			s.submitError(w, err)
			return
		}
		if fresh {
			created = append(created, j)
		}
		if !slices.Contains(jobs, j) { // two cells may canonicalize to one run
			jobs = append(jobs, j)
		}
	}
	sw := &sweep{jobs: jobs}
	h := sha256.New()
	for _, j := range jobs {
		io.WriteString(h, j.id)
	}
	sw.id = hex.EncodeToString(h.Sum(nil))
	// The id names the runs, not these job objects: a re-submission whose
	// earlier jobs expired or were canceled got fresh ones from submit,
	// and the sweep under the id must follow them, not the dead ones.
	s.mu.Lock()
	s.sweeps[sw.id] = sw
	s.mu.Unlock()
	if code, ok := s.settle(w, r, sw.jobs...); ok {
		writeJSON(w, code, sw.status())
	}
}

func (sw *sweep) status() SweepStatus {
	st := SweepStatus{ID: sw.id, Total: len(sw.jobs)}
	for _, j := range sw.jobs {
		rs := j.status()
		st.Runs = append(st.Runs, rs)
		switch rs.Status {
		case "done":
			st.Completed++
		case "failed", "expired", "canceled":
			// Expired/canceled runs are terminal without a result: the
			// sweep cannot end "done", so they count as failures at the
			// sweep level even though they say nothing about the sim.
			st.Completed++
			st.Failed++
		}
	}
	switch {
	case st.Completed < st.Total:
		st.Status = "running"
	case st.Failed > 0:
		st.Status = "failed"
	default:
		st.Status = "done"
	}
	return st
}

// sweepOf resolves the {id} of a sweep endpoint; an unknown id is
// answered 404 and nil returned.
func (s *Server) sweepOf(w http.ResponseWriter, r *http.Request) *sweep {
	id := r.PathValue("id")
	s.mu.Lock()
	sw := s.sweeps[id]
	s.mu.Unlock()
	if sw == nil {
		s.httpError(w, http.StatusNotFound, "unknown sweep %q", id)
	}
	return sw
}

func (s *Server) handleGetSweep(w http.ResponseWriter, r *http.Request) {
	sw := s.sweepOf(w, r)
	if sw == nil {
		return
	}
	if _, ok := s.wait(w, r, sw.jobs...); ok {
		writeJSON(w, http.StatusOK, sw.status())
	}
}

func (s *Server) handleSweepTable(w http.ResponseWriter, r *http.Request) {
	sw := s.sweepOf(w, r)
	if sw == nil {
		return
	}
	if _, ok := s.wait(w, r, sw.jobs...); !ok {
		return
	}
	// Nothing is left running behind a wait; without one the table is
	// there only once the sweep is.
	for _, j := range sw.jobs {
		if !j.finished() {
			s.httpError(w, http.StatusConflict, "sweep still running (%s)", j.id)
			return
		}
	}
	tb, err := sw.table(s.cfg.Opts.Warps, s.cfg.Opts.SMs)
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, tb.Render())
}

// table renders the sweep's completed runs. The text is a pure function
// of the run results (no hit/miss annotations), so a cached pass renders
// byte-identically to the pass that computed it.
func (sw *sweep) table(warps, sms int) (*experiments.Table, error) {
	tb := &experiments.Table{
		ID:     "sweep",
		Title:  fmt.Sprintf("%d runs (warps %d, SMs %d)", len(sw.jobs), warps, sms),
		Header: []string{"bench", "scheme", "capacity", "cycles", "insns", "IPC", "SIMT eff"},
	}
	for _, j := range sw.jobs {
		if st := j.state.Load(); st != jobDone {
			// A run without a result is a row of why: "error" for a failed
			// simulation, else the state's own name (expired, canceled).
			why := stateNames[st]
			if st == jobFailed {
				why = "error"
			}
			tb.AddRow(j.key.Bench, j.key.Scheme, fmt.Sprint(j.key.Capacity), why, j.errText, "", "")
			continue
		}
		var st struct{ Result RunResult }
		if err := json.Unmarshal(j.reply, &st); err != nil {
			return nil, fmt.Errorf("decoding result %s: %w", j.id, err)
		}
		res := st.Result
		tb.AddRow(res.Bench, res.Scheme, fmt.Sprint(res.Capacity),
			fmt.Sprint(res.Stats.Cycles), fmt.Sprint(res.Stats.DynInsns),
			fmt.Sprintf("%.2f", res.Stats.IPC()), fmt.Sprintf("%.2f", res.Stats.SIMTEfficiency()))
	}
	return tb, nil
}
