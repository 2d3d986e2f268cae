// Command smoke is the end-to-end checker scripts/check.sh runs against
// what the binaries leave behind — a trace file, a live server, a server
// it starts and stops itself. One subcommand per contract, each failing
// loudly on the first thing that is not as documented:
//
//	smoke trace FILE                  # a `regless -trace` Perfetto file (DESIGN.md §10)
//	smoke obs -addr http://HOST:PORT  # a live server's observability surface (§15)
//	smoke life -bin ./regless         # the shutdown and restart contract (§16)
//
// What comes over the wire is decoded into the types the server encodes
// it from (serve.Health, serve.SweepStatus, serve.RunStatus, obs.Node,
// events.TraceEvent), so a renamed field fails here too.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"
)

const usage = "usage: smoke trace FILE | obs -addr URL | life -bin BINARY"

// who prefixes every message: "smoke obs", ...
var who = "smoke"

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, who+": "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	fs := flag.NewFlagSet("smoke", flag.ExitOnError)
	addr := fs.String("addr", "", "obs: server base URL (required)")
	bin := fs.String("bin", "", "life: path to the regless binary (required)")
	budget := fs.Int64("budget", 2048, "life: store byte budget passed as -store-max-bytes")
	if len(os.Args) < 2 {
		fail(usage)
	}
	who += " " + os.Args[1]
	fs.Parse(os.Args[2:])
	switch {
	case os.Args[1] == "trace" && fs.NArg() == 1:
		checkTraceFile(fs.Arg(0))
	case os.Args[1] == "obs" && *addr != "":
		checkObservability(strings.TrimSuffix(*addr, "/"))
	case os.Args[1] == "life" && *bin != "":
		checkLifecycle(*bin, *budget)
	default:
		fail(usage)
	}
	fmt.Println(who + ": ok")
}

var client = &http.Client{Timeout: 5 * time.Minute}

// call makes one request (a GET when body is empty, else a JSON POST),
// decodes the JSON answer into v when v is non-nil, and returns the status
// and the raw body. Anything short of an answer fails the smoke.
func call(url, body string, v any) (int, []byte) {
	method, rd := "GET", io.Reader(nil)
	if body != "" {
		method, rd = "POST", strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		fail("%s %s: %v", method, url, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		fail("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		fail("%s %s: %v", method, url, err)
	}
	if v != nil {
		if err := json.Unmarshal(raw, v); err != nil {
			fail("%s %s: bad JSON: %v\n%s", method, url, err, raw)
		}
	}
	return resp.StatusCode, raw
}

// openStream opens a server-sent-event stream; the caller closes it.
func openStream(url string) *http.Response {
	resp, err := client.Get(url)
	if err != nil {
		fail("GET %s: %v", url, err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		fail("GET %s: content type %q", url, ct)
	}
	return resp
}
