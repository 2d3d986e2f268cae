package main

import (
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
)

// checkLifecycle owns the whole server lifecycle (unlike obs, which checks
// a server someone else started): it boots `regless serve` with a tiny
// store budget, submits a sweep, SIGTERMs the server while that work is
// still in flight, and then verifies the shutdown contract of DESIGN.md
// §16:
//
//   - the process exits 0 (a deliberate stop is not an error) and logs
//     its drain report and the "shut down cleanly" line
//   - the store's tmp/ directory holds no orphaned partial files
//   - the on-disk entry bytes respect -store-max-bytes
//   - a warm restart over the same store comes up healthy and serves
//     a run to completion, then shuts down just as cleanly
func checkLifecycle(bin string, budget int64) {
	dir, err := os.MkdirTemp("", "smoke-life-*")
	if err != nil {
		fail("%v", err)
	}
	defer os.RemoveAll(dir)
	storeDir := filepath.Join(dir, "store")
	logPath := filepath.Join(dir, "serve-log.txt")

	// Pass 1: boot, put real work in flight without waiting for it, and
	// SIGTERM while those runs are queued or simulating.
	srv := startServe(bin, dir, storeDir, logPath, budget)
	if code, raw := call(srv.base+"/v1/sweeps", `{"benchmarks":["nw","bfs"],"schemes":["baseline","regless"]}`, nil); code != http.StatusAccepted && code != http.StatusOK {
		fail("POST /v1/sweeps: HTTP %d: %s", code, raw)
	}
	stopServe(srv)

	log := readLog(logPath)
	if !strings.Contains(log, "regless: drain:") {
		fail("pass 1: no drain report in the serve log:\n%s", log)
	}
	if strings.Count(log, "shut down cleanly") != 1 {
		fail("pass 1: missing clean-shutdown line:\n%s", log)
	}
	checkStore(storeDir, budget)

	// Pass 2: warm restart over the same store must come up healthy,
	// serve a run to completion, and shut down just as cleanly.
	srv = startServe(bin, dir, storeDir, logPath, budget)
	var h serve.Health
	if code, _ := call(srv.base+"/healthz", "", &h); code != http.StatusOK || h.Status != "ok" {
		fail("warm restart healthz: HTTP %d status %q", code, h.Status)
	}
	var st serve.RunStatus
	if code, raw := call(srv.base+"/v1/runs?wait=1", `{"bench":"nw","scheme":"regless"}`, &st); code != http.StatusOK {
		fail("POST /v1/runs: HTTP %d: %s", code, raw)
	}
	if st.Status != "done" || len(st.Result) == 0 {
		fail("warm run finished %q (%s)", st.Status, st.Error)
	}
	stopServe(srv)

	if strings.Count(readLog(logPath), "shut down cleanly") != 2 {
		fail("pass 2: missing clean-shutdown line:\n%s", readLog(logPath))
	}
	checkStore(storeDir, budget)
}

type serveProc struct {
	cmd  *exec.Cmd
	base string
}

// startServe boots the server on an ephemeral port and waits for its
// address file. The short -drain-timeout keeps the smoke fast even if a
// drained job wedges; the budget forces eviction churn on a store this
// small.
func startServe(bin, dir, storeDir, logPath string, budget int64) *serveProc {
	addrFile := filepath.Join(dir, "addr")
	os.Remove(addrFile)
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		fail("%v", err)
	}
	defer logf.Close()
	cmd := exec.Command(bin, "serve",
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-store", storeDir, "-warps", "8",
		"-store-max-bytes", fmt.Sprint(budget),
		"-drain-timeout", "60s", "-request-timeout", "5m")
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		fail("start serve: %v", err)
	}
	for i := 0; ; i++ {
		raw, err := os.ReadFile(addrFile)
		if err == nil && len(raw) > 0 {
			return &serveProc{cmd: cmd, base: "http://" + string(raw)}
		}
		if i > 200 {
			cmd.Process.Kill()
			fail("server never wrote %s", addrFile)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// stopServe delivers SIGTERM and requires exit code 0: a deliberate stop
// with work in flight is a graceful drain, not a crash.
func stopServe(s *serveProc) {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		fail("signal: %v", err)
	}
	if err := s.cmd.Wait(); err != nil {
		fail("server exited nonzero after SIGTERM: %v", err)
	}
}

func readLog(path string) string {
	raw, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	return string(raw)
}

// checkStore walks the store directory after shutdown: tmp/ must be
// empty (no orphaned partial writes), a shard directory must hold
// <hash>.json entries and nothing else, and the entries must fit the byte
// budget the server was given.
func checkStore(storeDir string, budget int64) {
	temps, err := os.ReadDir(filepath.Join(storeDir, "tmp"))
	if err != nil {
		fail("store tmp dir: %v", err)
	}
	if len(temps) > 0 {
		fail("store left %d orphaned tmp files (%s ...)", len(temps), temps[0].Name())
	}
	var total int64
	shards, err := os.ReadDir(storeDir)
	if err != nil {
		fail("store dir: %v", err)
	}
	for _, sh := range shards {
		if !sh.IsDir() || sh.Name() == "tmp" || sh.Name() == "quarantine" {
			continue
		}
		files, err := os.ReadDir(filepath.Join(storeDir, sh.Name()))
		if err != nil {
			fail("store shard %s: %v", sh.Name(), err)
		}
		for _, f := range files {
			if hash, ok := strings.CutSuffix(f.Name(), ".json"); !ok || len(hash) != 64 {
				fail("store shard %s holds %s, which is not an entry", sh.Name(), f.Name())
			}
			fi, err := f.Info()
			if err != nil {
				continue
			}
			total += fi.Size()
		}
	}
	if total > budget {
		fail("store holds %d entry bytes, budget is %d", total, budget)
	}
}
