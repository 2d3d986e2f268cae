package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// environment is stamped into every run so a reader can tell where a
// number came from.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
	LoadAvg    string `json:"loadavg_at_start"`
}

func stampEnvironment() environment {
	e := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitSHA:     "unknown",
		LoadAvg:    "unknown",
	}
	// The driver's checkouts are not git repositories; "unknown" is the
	// honest stamp there.
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		e.GitSHA = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) >= 3 {
			e.LoadAvg = strings.Join(f[:3], "/")
		}
	}
	return e
}

// peakRSSMB is the calling process's resident-set high-water mark
// (VmHWM) in units of 10^6 bytes. A cold-start child reads its own: the
// ru_maxrss a parent gets from wait4 starts at the parent's size at fork
// and so mostly measures the harness.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}
