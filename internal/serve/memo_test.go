package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// postRaw submits a body as it stands.
func postRaw(h http.Handler, path, body string) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

func memoLen(s *Server) int {
	s.memoMu.Lock()
	defer s.memoMu.Unlock()
	return len(s.memo)
}

// TestBodyMemoReachesOneJob: a body, the same body again (now out of the
// memo) and the same request spelled with other whitespace are one job and
// one reply, byte for byte.
func TestBodyMemoReachesOneJob(t *testing.T) {
	s := newTestServer(t, t.TempDir(), testOpts())
	defer s.Close()
	h := s.Handler()
	const body = `{"bench":"nw","scheme":"regless"}`
	spaced := " {\"bench\" : \"nw\",\n\t\"scheme\": \"regless\"}\r\n"

	code, first := postRaw(h, "/v1/runs?wait=1", body)
	if code != http.StatusOK {
		t.Fatalf("first submission = %d %s", code, first)
	}
	if memoLen(s) != 1 {
		t.Fatalf("memo holds %d bodies after one admission", memoLen(s))
	}
	for _, b := range []string{body, spaced, body, spaced} {
		if code, again := postRaw(h, "/v1/runs?wait=1", b); code != http.StatusOK || !bytes.Equal(again, first) {
			t.Fatalf("body %q = %d %s\nwant the first reply %s", b, code, again, first)
		}
	}
	theJob(t, s) // exactly one
	if memoLen(s) != 2 {
		t.Fatalf("memo holds %d bodies, want the two spellings", memoLen(s))
	}
	if got := counter(t, s, "serve/submissions"); got != 5 {
		t.Fatalf("submissions = %d, want 5: a memo hit is still a submission", got)
	}
	if got := counter(t, s, "serve/dedup"); got != 4 {
		t.Fatalf("dedup = %d, want 4", got)
	}
}

// TestBodyMemoHoldsAdmissionsOnly: a rejected body is decoded, and
// rejected, every time — also right after a valid twin was memoised, and
// for every reason a body can be rejected for.
func TestBodyMemoHoldsAdmissionsOnly(t *testing.T) {
	s := newTestServer(t, t.TempDir(), testOpts())
	defer s.Close()
	h := s.Handler()
	const valid = `{"bench":"nw","scheme":"regless"}`
	rejected := []string{
		valid + `}`,
		valid + `]`,
		valid + ` extra`,
		`{"bench":"nw","scheme":"regless","warps":4}`,
		`{"bench":"nope","scheme":"regless"}`,
		`{"bench":"nw","scheme":"regless","capacity":-1}`,
		``,
	}
	for round := 0; round < 3; round++ {
		for _, b := range rejected {
			if code, reply := postRaw(h, "/v1/runs?wait=1", b); code != http.StatusBadRequest {
				t.Fatalf("round %d: body %q = %d %s, want 400", round, b, code, reply)
			}
		}
		if code, reply := postRaw(h, "/v1/runs?wait=1", valid); code != http.StatusOK {
			t.Fatalf("round %d: valid body = %d %s", round, code, reply)
		}
		if n := memoLen(s); n != 1 {
			t.Fatalf("round %d: memo holds %d bodies, want only the valid one", round, n)
		}
	}
	// A rejection by admission control is not a property of the body: the
	// memo resolves it as before and the answer is still the admitter's.
	if _, err := s.Drain(0); err != nil {
		t.Fatal(err)
	}
	if code, reply := postRaw(h, "/v1/runs?wait=1", valid); code != http.StatusServiceUnavailable {
		t.Fatalf("memoised body on a draining server = %d %s, want 503", code, reply)
	}
}

// TestBodyMemoIsBounded: twice memoEntries distinct admissible bodies, and
// one over memoBodyMax, leave the memo at its bound; every one of them is
// answered all the same.
func TestBodyMemoIsBounded(t *testing.T) {
	s := newTestServer(t, t.TempDir(), testOpts())
	defer s.Close()
	h := s.Handler()
	_, want := postRaw(h, "/v1/runs?wait=1", `{"bench":"nw","scheme":"regless"}`)

	long := `{"bench":"nw",` + strings.Repeat(" ", memoBodyMax) + `"scheme":"regless"}`
	if code, got := postRaw(h, "/v1/runs?wait=1", long); code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("long body = %d %s", code, got)
	}
	if n := memoLen(s); n != 1 {
		t.Fatalf("a %d-byte body was memoised (memo holds %d)", len(long), n)
	}
	for i := 0; i < 2*memoEntries; i++ {
		// Distinct bytes, one request: only the trailing whitespace varies.
		b := fmt.Sprintf(`{"bench":"nw","scheme":"regless"}%*s`, 1+i%97, "") + strings.Repeat("\n", i/97)
		if code, got := postRaw(h, "/v1/runs?wait=1", b); code != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("body %d = %d %s", i, code, got)
		}
		if n := memoLen(s); n > memoEntries {
			t.Fatalf("memo grew to %d bodies after %d submissions, bound %d", n, i+2, memoEntries)
		}
	}
	if n := memoLen(s); n != memoEntries {
		t.Fatalf("memo holds %d bodies, want it full at %d", n, memoEntries)
	}
	theJob(t, s)
}

func TestWantWait(t *testing.T) {
	for query, want := range map[string]bool{
		"":                   false,
		"wait=1":             true,
		"wait=true":          true,
		"wait=0":             false,
		"wait=":              false,
		"wait":               false,
		"wait=yes":           false,
		"waits=1":            false,
		"await=1":            false,
		"format=prom&wait=1": true,
		"&&wait=true&x=y":    true,
		"wait=0&wait=1":      false, // the first one decides, as url.Values.Get does
		"wait=1&wait=0":      true,
		"wait&wait=1":        false,
		"x=wait=1":           false,
	} {
		r := httptest.NewRequest("GET", "/v1/runs/abc?"+query, nil)
		if got := wantWait(r); got != want {
			t.Errorf("wantWait(%q) = %v, want %v", query, got, want)
		}
		if v := r.URL.Query().Get("wait"); (v == "1" || v == "true") != want {
			t.Errorf("query %q: url.ParseQuery reads wait=%q, the table says %v", query, v, want)
		}
	}
}
