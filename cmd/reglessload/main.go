// Command reglessload drives a running `regless serve` instance with
// sweep traffic: a configurable grid of (bench, scheme, capacity) points
// fired as thousands of run submissions from multiple synthetic clients,
// plus a one-shot -table mode that submits the grid as a single sweep and
// prints the rendered table (scripts diff it against goldens and across
// cold/warm passes).
//
// Usage:
//
//	reglessload -addr http://127.0.0.1:8080 -requests 2000 -clients 16 \
//	    -benchmarks nw,bfs -schemes baseline,regless -capacities 256,512
//	reglessload -addr http://127.0.0.1:8080 -table -benchmarks nw -schemes regless
//
// The summary reports client-side outcomes and the server's own counter
// deltas (/metricsz before vs after), so a run shows how much traffic the
// store absorbed versus simulated.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", "", "server base URL, e.g. http://127.0.0.1:8080 (required)")
		requests  = flag.Int("requests", 200, "total run submissions to fire (must be >= 1)")
		clients   = flag.Int("clients", 8, "concurrent synthetic clients, each with its own X-Regless-Client identity")
		benchList = flag.String("benchmarks", "nw", "comma-separated benchmarks in the grid")
		schemes   = flag.String("schemes", "regless", "comma-separated schemes in the grid")
		capsList  = flag.String("capacities", "", "comma-separated RegLess capacities (empty: server default)")
		waitReady = flag.Duration("wait-ready", 0, "poll /healthz until the server answers, up to this long")
		table     = flag.Bool("table", false, "submit the grid as one sweep and print its rendered table to stdout")
		timeout   = flag.Duration("timeout", 10*time.Minute, "per-request HTTP timeout")
		retries   = flag.Int("retries", 3, "retries per request when the server sheds load with 429 (honors Retry-After with jittered backoff)")
	)
	flag.Parse()
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "reglessload: -addr is required")
		flag.Usage()
		os.Exit(2)
	}
	if *requests < 1 || *clients < 1 {
		fmt.Fprintln(os.Stderr, "reglessload: -requests and -clients must be at least 1")
		os.Exit(2)
	}
	sweep, err := buildSweep(*benchList, *schemes, *capsList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reglessload:", err)
		os.Exit(2)
	}
	hc := &http.Client{Timeout: *timeout}
	base := strings.TrimSuffix(*addr, "/")

	if *waitReady > 0 {
		if err := waitForServer(hc, base, *waitReady); err != nil {
			fmt.Fprintln(os.Stderr, "reglessload:", err)
			os.Exit(1)
		}
	}

	if *table {
		if err := printTable(hc, base, sweep); err != nil {
			fmt.Fprintln(os.Stderr, "reglessload:", err)
			os.Exit(1)
		}
		return
	}

	grid := gridOf(sweep)
	before := fetchMetrics(hc, base)
	// Every request's latency, each client writing its own stretch.
	lat := make([]time.Duration, *requests)
	start := time.Now()
	var tally classTally
	var wg sync.WaitGroup
	perClient := (*requests + *clients - 1) / *clients
	fired := 0
	for c := 0; c < *clients && fired < *requests; c++ {
		n := min(perClient, *requests-fired)
		wg.Add(1)
		go func(client int, lat []time.Duration) {
			defer wg.Done()
			name := fmt.Sprintf("load-%d", client)
			for i := range lat {
				// Each client walks the grid from its own offset, so
				// concurrent clients collide on keys (dedupe) while
				// still covering every point.
				req := grid[(client+i)%len(grid)]
				t0 := time.Now()
				cls := submitRun(hc, base, name, req, *retries)
				lat[i] = time.Since(t0)
				tally.count(cls)
			}
		}(c, lat[fired:fired+n])
		fired += n
	}
	wg.Wait()
	wall := time.Since(start)
	after := fetchMetrics(hc, base)

	fmt.Printf("reglessload: %d requests (%d clients, %d grid points) in %.2fs (%.1f req/s)\n",
		*requests, *clients, len(grid), wall.Seconds(), float64(*requests)/wall.Seconds())
	tally.print(os.Stdout)
	printLatency(os.Stdout, lat)
	if before != nil && after != nil {
		printDeltas(before, after)
	}
	if tally.bad() > 0 {
		os.Exit(1)
	}
}

// errClass classifies one request's terminal outcome. Everything except
// clsOK makes the exit code nonzero; the breakdown tells an operator
// whether the problem was the server (5xx, failed runs), the network
// (disconnects), load shedding that outlasted the retries (shed), or
// budgets (timeouts).
type errClass int

const (
	clsOK         errClass = iota
	clsFailed              // server answered 200 with a non-done run (failed/expired/canceled)
	clsRejected            // 4xx admission rejection (bad request, quarantined config)
	clsTimeout             // client-side -timeout elapsed
	clsShed                // 429 shedding outlasted every retry
	cls5xx                 // server error
	clsDisconnect          // connection severed mid-request
	clsClasses             // count
)

var classNames = [clsClasses]string{
	"done", "failed runs", "rejected (4xx)", "timeouts", "shed (429)", "5xx", "disconnects",
}

// classTally is the per-class outcome counter shared by the clients.
type classTally struct{ c [clsClasses]atomic.Int64 }

func (t *classTally) count(c errClass) { t.c[c].Add(1) }

func (t *classTally) bad() int64 {
	var n int64
	for c := clsFailed; c < clsClasses; c++ {
		n += t.c[c].Load()
	}
	return n
}

func (t *classTally) print(w io.Writer) {
	fmt.Fprintf(w, "  done %d", t.c[clsOK].Load())
	for c := clsFailed; c < clsClasses; c++ {
		if v := t.c[c].Load(); v > 0 {
			fmt.Fprintf(w, ", %s %d", classNames[c], v)
		}
	}
	fmt.Fprintln(w)
}

// quantile is the q-th quantile (0..1) of the sorted samples, exactly:
// the sample of rank q*n, the last one at most.
func quantile(sorted []time.Duration, q float64) time.Duration {
	return sorted[min(int(q*float64(len(sorted))), len(sorted)-1)]
}

func fmtMS(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
}

// printLatency sorts the per-request latencies and renders their
// distribution.
func printLatency(w io.Writer, lat []time.Duration) {
	slices.Sort(lat)
	var sum time.Duration
	for _, d := range lat {
		sum += d
	}
	fmt.Fprintf(w, "  request latency (%d samples, mean %s):\n", len(lat), fmtMS(sum/time.Duration(len(lat))))
	for _, p := range []struct {
		name string
		q    float64
	}{{"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}, {"max", 1}} {
		fmt.Fprintf(w, "    %-4s %10s\n", p.name, fmtMS(quantile(lat, p.q)))
	}
}

// buildSweep reads the grid flags into the sweep request -table submits
// as it stands.
func buildSweep(benchList, schemeList, capsList string) (serve.SweepRequest, error) {
	sw := serve.SweepRequest{Benchmarks: splitList(benchList), Schemes: splitList(schemeList)}
	if len(sw.Benchmarks) == 0 || len(sw.Schemes) == 0 {
		return sw, fmt.Errorf("need at least one benchmark and one scheme")
	}
	for _, c := range splitList(capsList) {
		n, err := strconv.Atoi(c)
		if err != nil || n < 0 {
			return sw, fmt.Errorf("bad capacity %q", c)
		}
		sw.Capacities = append(sw.Capacities, n)
	}
	return sw, nil
}

// gridOf is the sweep's points as the run submissions the load mode fires,
// in the server's grid order; no capacity means the server's default (0).
func gridOf(sw serve.SweepRequest) []serve.RunRequest {
	caps := sw.Capacities
	if len(caps) == 0 {
		caps = []int{0}
	}
	var grid []serve.RunRequest
	for _, b := range sw.Benchmarks {
		for _, s := range sw.Schemes {
			for _, c := range caps {
				grid = append(grid, serve.RunRequest{Bench: b, Scheme: s, Capacity: c})
			}
		}
	}
	return grid
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// waitForServer polls /healthz until any HTTP answer arrives (a degraded
// 503 still means the server is up).
func waitForServer(hc *http.Client, base string, d time.Duration) error {
	deadline := time.Now().Add(d)
	for {
		resp, err := hc.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not ready after %s: %v", base, d, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// submitRun fires one wait=1 submission and classifies its outcome. A
// 429 (the server shedding load) is retried up to retries times, waiting
// out the server's Retry-After hint with jitter so a thundering herd of
// shed clients doesn't re-arrive in lockstep; every other outcome is
// terminal.
func submitRun(hc *http.Client, base, client string, req serve.RunRequest, retries int) errClass {
	body, err := json.Marshal(req)
	if err != nil {
		return clsDisconnect
	}
	for attempt := 0; ; attempt++ {
		hr, err := http.NewRequest("POST", base+"/v1/runs?wait=1", bytes.NewReader(body))
		if err != nil {
			return clsDisconnect
		}
		hr.Header.Set("Content-Type", "application/json")
		hr.Header.Set("X-Regless-Client", client)
		resp, err := hc.Do(hr)
		if err != nil {
			return classifyTransport(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return classifyTransport(err)
		}
		switch {
		case resp.StatusCode == http.StatusOK:
			var st serve.RunStatus
			if err := json.Unmarshal(raw, &st); err != nil {
				return clsDisconnect
			}
			if st.Status == "done" && len(st.Result) > 0 {
				return clsOK
			}
			return clsFailed
		case resp.StatusCode == http.StatusTooManyRequests:
			if attempt >= retries {
				return clsShed
			}
			time.Sleep(backoff(resp.Header.Get("Retry-After")))
		case resp.StatusCode >= 500:
			return cls5xx
		default:
			return clsRejected
		}
	}
}

// classifyTransport splits connection failures into client-side deadline
// expiries and everything else (resets, refused connections, severed
// bodies).
func classifyTransport(err error) errClass {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return clsTimeout
	}
	return clsDisconnect
}

// backoff turns a Retry-After header (delta-seconds) into a jittered
// sleep: the full server hint plus up to half again, capped at 30s. The
// jitter spreads shed clients out so the retry wave doesn't recreate the
// overload that shed them.
func backoff(retryAfter string) time.Duration {
	secs := 1
	if n, err := strconv.Atoi(strings.TrimSpace(retryAfter)); err == nil && n > 0 {
		secs = min(n, 30)
	}
	d := time.Duration(secs) * time.Second
	return d + rand.N(d/2+time.Millisecond)
}

// printTable submits the whole grid as one sweep and prints the rendered
// table — the byte-stable artifact scripts diff across passes.
func printTable(hc *http.Client, base string, req serve.SweepRequest) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := hc.Post(base+"/v1/sweeps?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /v1/sweeps: %s: %s", resp.Status, strings.TrimSpace(string(raw)))
	}
	var sw serve.SweepStatus
	if err := json.Unmarshal(raw, &sw); err != nil {
		return err
	}
	if sw.Status != "done" {
		return fmt.Errorf("sweep %s finished %q", sw.ID, sw.Status)
	}
	tresp, err := hc.Get(base + "/v1/sweeps/" + sw.ID + "/table")
	if err != nil {
		return err
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET table: %s", tresp.Status)
	}
	_, err = io.Copy(os.Stdout, tresp.Body)
	return err
}

// fetchMetrics reads the server's counters; nil if they cannot be had.
func fetchMetrics(hc *http.Client, base string) map[string]uint64 {
	resp, err := hc.Get(base + "/metricsz")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var m map[string]uint64
	if json.NewDecoder(resp.Body).Decode(&m) != nil {
		return nil
	}
	return m
}

// printDeltas shows how the server's counters moved over the load run
// (gauges print their final value).
func printDeltas(before, after map[string]uint64) {
	names := make([]string, 0, len(after))
	for n := range after {
		names = append(names, n)
	}
	slices.Sort(names)
	fmt.Println("  server counters (delta over run):")
	for _, n := range names {
		d := after[n] - before[n]
		if strings.HasPrefix(n, "serve/queue") || strings.HasPrefix(n, "serve/inflight") {
			fmt.Printf("    %-24s %d (now)\n", n, after[n])
			continue
		}
		if d != 0 {
			fmt.Printf("    %-24s +%d\n", n, d)
		}
	}
}
