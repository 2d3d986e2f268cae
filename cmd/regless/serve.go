package main

// The `regless serve` subcommand: the sweep service of DESIGN.md §14. It
// owns its own flag set (the service fixes the simulation configuration
// at startup, by the machine flags it shares with the CLI; requests choose
// the (bench, scheme, capacity) point) and
// shuts down cleanly on SIGINT/SIGTERM so operators and scripts get exit
// code 0 from a deliberate stop.

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/serve"
)

// buildSHA is stamped at link time (-ldflags "-X main.buildSHA=...");
// resolveGitSHA falls back to the VCS revision Go embeds in module
// builds. Either way /healthz reports what binary is answering.
var buildSHA string

func resolveGitSHA() string {
	if buildSHA != "" {
		return buildSHA
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return ""
}

// serveCLI is `regless serve`'s command line beside the machine flags,
// which fix the configuration of every served simulation.
type serveCLI struct {
	addr, addrFile, storeDir, metricsOut string
	pprof                                bool
	reqTimeout, drainWait                time.Duration
	queueLimit, breakerN                 int
	storeMax                             int64
	machine                              func() (experiments.Options, error)
}

func newServeCLI(fs *flag.FlagSet) *serveCLI {
	c := &serveCLI{machine: machineFlags(fs)}
	fs.StringVar(&c.addr, "addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	fs.StringVar(&c.addrFile, "addr-file", "", "write the bound address to this file once listening (scripts poll it)")
	fs.StringVar(&c.storeDir, "store", "", "persistent result store directory (required; created if missing)")
	fs.StringVar(&c.metricsOut, "metrics-out", "", "append the server's JSONL metrics windows to this file")
	fs.BoolVar(&c.pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/")
	fs.DurationVar(&c.reqTimeout, "request-timeout", 0, "default per-request simulation budget (0 disables; clients may shorten via X-Regless-Timeout)")
	fs.DurationVar(&c.drainWait, "drain-timeout", 30*time.Second, "graceful-shutdown window before in-flight runs are canceled (0 waits indefinitely)")
	fs.IntVar(&c.queueLimit, "queue-limit", 1024, "admission queue bound; submissions beyond it are shed with 429")
	fs.Int64Var(&c.storeMax, "store-max-bytes", 0, "store size budget in bytes, enforced by LRU eviction (0 disables)")
	fs.IntVar(&c.breakerN, "breaker-threshold", 3, "sanitizer diagnostics per (bench,scheme,capacity) before the circuit breaker quarantines it")
	return c
}

// options is the machine flags' options, once a store is named.
func (c *serveCLI) options() (experiments.Options, error) {
	if c.storeDir == "" {
		return experiments.Options{}, fmt.Errorf("-store is required")
	}
	return c.machine()
}

func serveMain(args []string) {
	fs := flag.NewFlagSet("regless serve", flag.ExitOnError)
	c := newServeCLI(fs)
	fs.Parse(args)
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "regless serve: unexpected arguments %v\n", fs.Args())
		fs.Usage()
		os.Exit(2)
	}
	opts, err := c.options()
	if err != nil {
		fmt.Fprintln(os.Stderr, "regless serve:", err)
		fs.Usage()
		os.Exit(2)
	}

	cfg := serve.Config{
		Opts:             opts,
		StoreDir:         c.storeDir,
		GitSHA:           resolveGitSHA(),
		EnablePprof:      c.pprof,
		RequestTimeout:   c.reqTimeout,
		QueueLimit:       c.queueLimit,
		BreakerThreshold: c.breakerN,
		StoreMaxBytes:    c.storeMax,
	}
	if c.metricsOut != "" {
		f, err := os.OpenFile(c.metricsOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		check(err)
		defer f.Close()
		cfg.MetricsWriter = f
	}
	srv, err := serve.New(cfg)
	check(err)

	ln, err := net.Listen("tcp", c.addr)
	check(err)
	if c.addrFile != "" {
		check(os.WriteFile(c.addrFile, []byte(ln.Addr().String()), 0o644))
	}
	fmt.Fprintf(os.Stderr, "regless: serving on http://%s (store %s, warps %d, sms %d, pool %d)\n",
		ln.Addr(), c.storeDir, opts.Warps, opts.SMs, opts.Parallelism)

	httpSrv := &http.Server{Handler: srv.Handler()}
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
		// Deliberate stop: refuse new connections, then drain — in-flight
		// and queued jobs get up to -drain-timeout to finish (and
		// persist) before their contexts are canceled; SSE subscribers
		// receive terminal events; metrics flush; the store fsyncs.
		check(httpSrv.Close())
		<-done // http.ErrServerClosed
		rep, err := srv.Drain(c.drainWait)
		check(err)
		fmt.Fprintf(os.Stderr,
			"regless: drain: %d pending, %d completed, %d canceled, timed_out=%v in %.2fs\n",
			rep.Pending, rep.Completed, rep.Canceled, rep.TimedOut, rep.DurationSeconds)
		fmt.Fprintln(os.Stderr, "regless: serve shut down cleanly")
	case err := <-done:
		// Listener failure: still drain and flush before reporting.
		srv.Close()
		check(err)
	}
}
