package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// fuzzServer builds one server per fuzz target, shared across its
// iterations (one pool, one store); the tiny MaxCycles bounds any
// organically valid request the fuzzer mints, so a run it admits finishes
// in microseconds (possibly as a MaxCycles failure — that is fine, the
// target is the decoder, not the simulator).
func fuzzServer(f *testing.F) *Server {
	s, err := New(Config{
		Opts: experiments.Options{
			Warps:       1,
			Benchmarks:  []string{"nw"},
			MaxCycles:   2000,
			Parallelism: 2,
		},
		StoreDir: f.TempDir(),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	return s
}

// FuzzRunRequestDecode fuzzes the run-submission decoder: arbitrary
// bodies must never panic the handler and must answer every malformed
// request with a 4xx, never a 5xx and never an admission (the strict
// decoder rejects unknown fields, trailing data, and oversized bodies).
func FuzzRunRequestDecode(f *testing.F) {
	f.Add(`{"bench":"nw","scheme":"baseline"}`)
	f.Add(`{"bench":"nw","scheme":"regless","capacity":256}`)
	f.Add(`{"bench":"nw","scheme":"regless","capacity":-1}`)
	f.Add(`{"bench":"nw","scheme":"regless","capacity":100}`)
	f.Add(`{"bench":"nw","scheme":"baseline","capacity":100}`)
	f.Add(`{"bench":"../etc","scheme":"regless"}`)
	f.Add(`{"bench":"nw","scheme":"regless"} trailing`)
	f.Add(`{"bench":"nw","unknown":true}`)
	f.Add(`{"capacity":"not a number"}`)
	f.Add(`[1,2,3]`)
	f.Add(`null`)
	f.Add(``)
	f.Add(`{`)
	f.Add("\x00\xff\xfe")
	f.Add(`{"bench":"` + strings.Repeat("A", 1<<10) + `"}`)
	f.Add(`{"bench":"nw","scheme":"regless"}}`)
	f.Add(`{"bench":"nw","scheme":"regless"}]`)
	f.Add(" {\"bench\" : \"nw\",\n\"scheme\":\"regless\"}\n")

	s := fuzzServer(f)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest("POST", "/v1/runs", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req) // a panic here fails the fuzz target
		// The strict decoder is the reference for what is admissible: the
		// body memo in front of it may never change an answer.
		var rr RunRequest
		admissible := decodeStrict([]byte(body), &rr) == nil
		if admissible {
			_, err := s.KeyFor(rr)
			admissible = err == nil
		}
		switch {
		case rec.Code == http.StatusAccepted && admissible:
			// A syntactically valid request naming a real point: fine.
		case rec.Code >= 400 && rec.Code < 500 && !admissible:
			// Malformed: rejected, not crashed.
		default:
			t.Fatalf("POST /v1/runs with %q = %d (admissible: %v), want 202 or 4xx", body, rec.Code, admissible)
		}
	})
}

// FuzzSweepRequestDecode gives the sweep decoder the same treatment; its
// failure mode additionally includes partially-admitted grids, which the
// canonicalize-first discipline forbids.
func FuzzSweepRequestDecode(f *testing.F) {
	f.Add(`{"benchmarks":["nw"],"schemes":["baseline"]}`)
	f.Add(`{"benchmarks":["nw","nope"],"schemes":["regless"]}`)
	f.Add(`{"benchmarks":[],"schemes":[]}`)
	f.Add(`{"benchmarks":["nw"],"schemes":["regless"],"capacities":[-3]}`)
	f.Add(`{"benchmarks":null,"schemes":null}`)
	f.Add(`{"benchmarks":"nw"}`)
	f.Add(`{}`)
	f.Add(`00`)
	f.Add(`{"benchmarks":["nw"],"schemes":["baseline"]}}`)
	f.Add(`{"benchmarks":["nw"],"schemes":["baseline"]}]`)

	s := fuzzServer(f)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body string) {
		subsBefore, _ := s.Metrics().Value("serve/submissions")
		req := httptest.NewRequest("POST", "/v1/sweeps", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch {
		case rec.Code == http.StatusAccepted:
		case rec.Code >= 400 && rec.Code < 500:
			subsAfter, _ := s.Metrics().Value("serve/submissions")
			if subsAfter != subsBefore {
				t.Fatalf("rejected sweep %q admitted %d runs", body, subsAfter-subsBefore)
			}
		default:
			t.Fatalf("POST /v1/sweeps with %q = %d, want 202 or 4xx", body, rec.Code)
		}
	})
}
