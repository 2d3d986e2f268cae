package serve

// Health: what /healthz reports and the failures it remembers.

import (
	"net/http"
	"time"
)

func (s *Server) recordFailure(j *job) {
	s.cFailures.Inc()
	fb := FailureBrief{ID: j.id, Bench: j.key.Bench, Scheme: j.key.Scheme, Brief: j.errText}
	if j.diag != nil {
		fb.Component = j.diag.Component
		fb.Brief = j.diag.Brief()
	}
	s.mu.Lock()
	s.recent = append(s.recent, fb)
	if len(s.recent) > 8 {
		s.recent = s.recent[len(s.recent)-8:]
	}
	s.mu.Unlock()
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := len(s.jobs)
	recent := append([]FailureBrief(nil), s.recent...)
	s.mu.Unlock()
	entries, err := s.st.Len()
	if err != nil {
		entries = -1
	}
	h := Health{
		GitSHA:        s.cfg.GitSHA,
		StoreEntries:  entries,
		StoreBytes:    s.st.Bytes(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Jobs:          jobs,
		Queued:        s.admit.queued.Load(),
		Inflight:      s.admit.inflight.Load(),
		Failures:      s.cFailures.Value(),
		Sanitize:      s.cfg.Opts.Sanitize,
		Watchdog:      s.cfg.Opts.Watchdog,
		LastFailures:  recent,
		Breakers:      s.openBreakers(),
	}
	if s.cfg.Opts.Faults != nil {
		h.ArmedFaults = s.cfg.Opts.Faults.ArmedClasses()
	}
	code := http.StatusServiceUnavailable
	switch {
	case s.draining.Load():
		h.Status = "draining"
	case h.Queued >= int64(s.cfg.QueueLimit):
		h.Status = "overloaded"
	case h.Failures > 0 || len(h.Breakers) > 0:
		h.Status = "degraded"
	default:
		h.Status, code = "ok", http.StatusOK
	}
	writeJSON(w, code, h)
}
