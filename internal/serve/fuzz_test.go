package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/kernels"
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

// FuzzRunRequestDecode fuzzes run admission end to end: arbitrary bodies
// must never panic the handler and must answer every malformed request
// with a 4xx, never a 5xx and never an admission. The strict decoder
// (unknown fields, trailing data and oversized bodies rejected) is the
// reference; the body memo and the scanner in front of it may never change
// an answer.
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

// compactBodies are the run bodies json.Marshal writes for every point a
// client of the suite names: each benchmark under each scheme, with the
// capacity omitted (0) or, for a scheme that has one, each swept capacity.
func compactBodies(tb testing.TB) map[string]RunRequest {
	tb.Helper()
	out := map[string]RunRequest{}
	for _, bench := range kernels.Names() {
		for _, scheme := range experiments.Schemes() {
			capacities := []int{0}
			if scheme.HasCapacity() {
				capacities = append(capacities, experiments.Capacities...)
			}
			for _, capacity := range capacities {
				rr := RunRequest{Bench: bench, Scheme: string(scheme), Capacity: capacity}
				b, err := json.Marshal(rr)
				if err != nil {
					tb.Fatal(err)
				}
				out[string(b)] = rr
			}
		}
	}
	return out
}

// scanNearMisses are bodies one step from what the scanner reads; each
// must go to the decoder, which accepts some of them.
var scanNearMisses = []string{
	`{"bench":"nw","scheme":"regless","capacity":0}`,
	`{"bench":"nw","scheme":"regless","capacity":-1}`,
	`{"bench":"nw","scheme":"regless","capacity":007}`,
	`{"bench":"nw","scheme":"regless","capacity":1e2}`,
	`{"bench":"nw","scheme":"regless","capacity":512.0}`,
	`{"bench":"nw","scheme":"regless","capacity":1234567890}`,
	`{"bench":"nw","scheme":"regless","capacity":}`,
	`{"bench":"nw","scheme":"regless","capacity":512`,
	`{"Bench":"nw","scheme":"regless"}`,
	"{\"bench\":\"n\\u0077\",\"scheme\":\"regless\"}",
	`{"bench":"nw","scheme":"baseline","scheme":"regless"}`,
	`{"bench":"nw","scheme":"regless","report":["stalls"]}`,
	`{"bench":"nw","scheme":"regless"} `,
	"{\"bench\":\"nw\",\"scheme\":\"regless\"}\n",
	`{"bench":"nw","scheme":"regless"}}`,
	`{"bench":"nw","scheme":"regless",}`,
	`{"bench":"nw","scheme":"regless"`,
	`{"bench":"nope","scheme":"regless"}`,
	`{"bench":"nw","scheme":"regles"}`,
	`{"scheme":"regless","bench":"nw"}`,
	`{"bench":"nw"}`,
}

// TestScanReadsCompactBodiesOnly: the scanner reads every compact body of
// the suite as the request it was marshaled from, and declines every near
// miss.
func TestScanReadsCompactBodiesOnly(t *testing.T) {
	for body, want := range compactBodies(t) {
		if got, ok := scanRunRequest([]byte(body)); !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("scan %s = %+v ok=%v, want %+v", body, got, ok, want)
		}
	}
	for _, body := range scanNearMisses {
		if got, ok := scanRunRequest([]byte(body)); ok {
			t.Errorf("scan %s = %+v, want it left to the decoder", body, got)
		}
	}
}

// FuzzRunRequestScan holds the scanner to the strict decoder: whatever
// body it accepts, decodeStrict accepts too and reads as the same request.
func FuzzRunRequestScan(f *testing.F) {
	for body := range compactBodies(f) {
		f.Add(body)
	}
	for _, body := range scanNearMisses {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		got, ok := scanRunRequest([]byte(body))
		if !ok {
			return
		}
		var want RunRequest
		if err := decodeStrict([]byte(body), &want); err != nil {
			t.Fatalf("scanner read %q as %+v, the decoder refuses it: %v", body, got, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scanner read %q as %+v, the decoder as %+v", body, got, want)
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
