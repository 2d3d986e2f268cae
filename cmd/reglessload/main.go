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
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

type runRequest struct {
	Bench    string `json:"bench"`
	Scheme   string `json:"scheme"`
	Capacity int    `json:"capacity,omitempty"`
}

type runStatus struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Cached bool            `json:"cached,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

type sweepStatus struct {
	ID     string `json:"id"`
	Status string `json:"status"`
}

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
	grid, err := buildGrid(*benchList, *schemes, *capsList)
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
		if err := printTable(hc, base, grid); err != nil {
			fmt.Fprintln(os.Stderr, "reglessload:", err)
			os.Exit(1)
		}
		return
	}

	before, _ := fetchMetrics(hc, base)
	lat := newLatencyTracker()
	start := time.Now()
	var tally classTally
	var wg sync.WaitGroup
	perClient := (*requests + *clients - 1) / *clients
	fired := 0
	for c := 0; c < *clients && fired < *requests; c++ {
		n := perClient
		if fired+n > *requests {
			n = *requests - fired
		}
		fired += n
		wg.Add(1)
		go func(client, n, offset int) {
			defer wg.Done()
			name := fmt.Sprintf("load-%d", client)
			for i := 0; i < n; i++ {
				// Each client walks the grid from its own offset, so
				// concurrent clients collide on keys (dedupe) while
				// still covering every point.
				req := grid[(offset+i)%len(grid)]
				t0 := time.Now()
				cls := submitRun(hc, base, name, req, *retries)
				lat.observe(time.Since(t0))
				tally.count(cls)
			}
		}(c, n, c)
	}
	wg.Wait()
	wall := time.Since(start)
	after, _ := fetchMetrics(hc, base)

	fmt.Printf("reglessload: %d requests (%d clients, %d grid points) in %.2fs (%.1f req/s)\n",
		*requests, *clients, len(grid), wall.Seconds(), float64(*requests)/wall.Seconds())
	tally.print(os.Stdout)
	lat.printSummary(os.Stdout)
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

// latBounds bucket per-request latency in microseconds, 100µs to 10min
// (wait=1 submissions block for the whole simulation).
var latBounds = []uint64{
	100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
	100_000, 250_000, 500_000, 1_000_000, 2_500_000, 5_000_000,
	10_000_000, 30_000_000, 60_000_000, 300_000_000, 600_000_000,
}

// latencyTracker is the client-side latency distribution: the shared
// metrics histogram (atomic — every synthetic client observes into it)
// plus an exact maximum, which a bucketed histogram cannot recover.
type latencyTracker struct {
	reg  *metrics.Registry
	hist metrics.Histogram
	max  atomic.Uint64
}

func newLatencyTracker() *latencyTracker {
	reg := metrics.NewRegistry()
	return &latencyTracker{reg: reg, hist: reg.AtomicHistogram("load/latency_us", latBounds...)}
}

func (l *latencyTracker) observe(d time.Duration) {
	us := uint64(d / time.Microsecond)
	l.hist.Observe(us)
	for {
		cur := l.max.Load()
		if us <= cur || l.max.CompareAndSwap(cur, us) {
			return
		}
	}
}

// counts reads the bucket cells back out of the registry (non-cumulative,
// overflow bucket last).
func (l *latencyTracker) counts() []uint64 {
	out := make([]uint64, 0, len(latBounds)+1)
	for _, b := range latBounds {
		v, _ := l.reg.Value(fmt.Sprintf("load/latency_us/le_%d", b))
		out = append(out, v)
	}
	v, _ := l.reg.Value("load/latency_us/inf")
	return append(out, v)
}

// quantile interpolates the q-th quantile (0..1) from the bucket counts,
// linearly within the containing bucket; the overflow bucket reports the
// exact observed maximum.
func (l *latencyTracker) quantile(counts []uint64, total uint64, q float64) uint64 {
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum, lo uint64
	for i, c := range counts {
		if cum+c > rank {
			if i >= len(latBounds) {
				return l.max.Load()
			}
			hi := latBounds[i]
			// Position of the rank within this bucket, interpolated.
			frac := float64(rank-cum) / float64(c)
			return lo + uint64(frac*float64(hi-lo))
		}
		cum += c
		if i < len(latBounds) {
			lo = latBounds[i]
		}
	}
	return l.max.Load()
}

func fmtUS(us uint64) string {
	return fmt.Sprintf("%.1fms", float64(us)/1000)
}

// printSummary renders the per-request latency distribution table.
func (l *latencyTracker) printSummary(w io.Writer) {
	counts := l.counts()
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return
	}
	sum, _ := l.reg.Value("load/latency_us/sum")
	fmt.Fprintf(w, "  request latency (%d samples, mean %s):\n", total, fmtUS(sum/total))
	for _, p := range []struct {
		name string
		q    float64
	}{{"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}} {
		fmt.Fprintf(w, "    %-4s %10s\n", p.name, fmtUS(l.quantile(counts, total, p.q)))
	}
	fmt.Fprintf(w, "    %-4s %10s\n", "max", fmtUS(l.max.Load()))
}

func buildGrid(benchList, schemeList, capsList string) ([]runRequest, error) {
	benches := splitList(benchList)
	schemes := splitList(schemeList)
	if len(benches) == 0 || len(schemes) == 0 {
		return nil, fmt.Errorf("need at least one benchmark and one scheme")
	}
	caps := []int{0}
	if capsList != "" {
		caps = nil
		for _, c := range splitList(capsList) {
			n, err := strconv.Atoi(c)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("bad capacity %q", c)
			}
			caps = append(caps, n)
		}
	}
	var grid []runRequest
	for _, b := range benches {
		for _, s := range schemes {
			for _, c := range caps {
				grid = append(grid, runRequest{Bench: b, Scheme: s, Capacity: c})
			}
		}
	}
	return grid, nil
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
func submitRun(hc *http.Client, base, client string, req runRequest, retries int) errClass {
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
			var st runStatus
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
		secs = n
	}
	if secs > 30 {
		secs = 30
	}
	d := time.Duration(secs) * time.Second
	return d + rand.N(d/2+time.Millisecond)
}

// printTable submits the whole grid as one sweep and prints the rendered
// table — the byte-stable artifact scripts diff across passes.
func printTable(hc *http.Client, base string, grid []runRequest) error {
	benchSet, schemeSet, capSet := map[string]bool{}, map[string]bool{}, map[int]bool{}
	var benches, schemes []string
	var caps []int
	for _, g := range grid {
		if !benchSet[g.Bench] {
			benchSet[g.Bench] = true
			benches = append(benches, g.Bench)
		}
		if !schemeSet[g.Scheme] {
			schemeSet[g.Scheme] = true
			schemes = append(schemes, g.Scheme)
		}
		if !capSet[g.Capacity] {
			capSet[g.Capacity] = true
			caps = append(caps, g.Capacity)
		}
	}
	req := map[string]any{"benchmarks": benches, "schemes": schemes}
	if !(len(caps) == 1 && caps[0] == 0) {
		req["capacities"] = caps
	}
	body, _ := json.Marshal(req)
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
	var sw sweepStatus
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

func fetchMetrics(hc *http.Client, base string) (map[string]uint64, error) {
	resp, err := hc.Get(base + "/metricsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m map[string]uint64
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, err
	}
	return m, nil
}

// printDeltas shows how the server's counters moved over the load run
// (gauges print their final value).
func printDeltas(before, after map[string]uint64) {
	names := make([]string, 0, len(after))
	for n := range after {
		names = append(names, n)
	}
	sort.Strings(names)
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
