package serve

// From a request to the run it names: KeyFor canonicalizes a run request
// into a store.Key, resolve addresses it, and the body memo remembers
// which bodies came to which key.
//
// Kernel content hashing. The store keys results by what the kernel *is*
// (its canonical assembly text), not just what it is called: a codegen or
// register-allocator change shifts the hash and silently invalidates
// every stale entry, so two binaries may serve each other's cached
// results only while they would simulate identical code. This lives here
// rather than in internal/kernels because the asm package's own tests
// load benchmark kernels, which would make kernels -> asm a test-only
// import cycle.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"repro/internal/asm"
	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/store"
)

// kernelHashCache memoizes per-benchmark content hashes: hashing formats
// the whole allocated kernel, and every admitted request asks for its
// benchmark's hash.
var kernelHashCache = struct {
	sync.Mutex
	m map[string]string
}{m: map[string]string{}}

// KernelHash returns the sha256 hex digest of the benchmark's allocated
// kernel rendered as canonical assembly (asm.Format) — the content
// component of store keys. Unknown benchmarks error (an admission 4xx).
func KernelHash(name string) (string, error) {
	kernelHashCache.Lock()
	h, ok := kernelHashCache.m[name]
	kernelHashCache.Unlock()
	if ok {
		return h, nil
	}
	k, err := kernels.Load(name)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256([]byte(asm.Format(k)))
	h = hex.EncodeToString(sum[:])
	kernelHashCache.Lock()
	kernelHashCache.m[name] = h
	kernelHashCache.Unlock()
	return h, nil
}

// KeyFor canonicalizes a run request against this server's configuration.
// Errors are admission errors (unknown bench/scheme, bad capacity) and
// map to 4xx; the capacity rule is the command line's
// (experiments.CanonicalCapacity).
func (s *Server) KeyFor(req RunRequest) (store.Key, error) {
	scheme, err := experiments.ParseScheme(req.Scheme)
	if err != nil {
		return store.Key{}, err
	}
	capacity, err := experiments.CanonicalCapacity(scheme, req.Capacity)
	if err != nil {
		return store.Key{}, err
	}
	report, err := canonicalizeReport(req.Report)
	if err != nil {
		return store.Key{}, err
	}
	ksha, err := KernelHash(req.Bench)
	if err != nil {
		return store.Key{}, err
	}
	k := store.Key{
		KernelSHA: ksha,
		Bench:     req.Bench,
		Scheme:    string(scheme),
		Capacity:  capacity,
		Warps:     s.cfg.Opts.Warps,
		SMs:       s.cfg.Opts.SMs,
		MaxCycles: s.cfg.Opts.MaxCycles,
		Watchdog:  s.cfg.Opts.Watchdog,
		Sanitize:  s.cfg.Opts.Sanitize,
		Faults:    s.faultsSpec,
		Report:    report,
	}.Normalized()
	if err := k.Validate(); err != nil {
		return store.Key{}, err
	}
	return k, nil
}

// admitted is what a run request comes to once it has been accepted: the
// canonical key and its content address, which is the job's id.
type admitted struct {
	key store.Key
	id  string
}

// resolve canonicalizes a run request and addresses it.
func (s *Server) resolve(req RunRequest) (admitted, error) {
	key, err := s.KeyFor(req)
	if err != nil {
		return admitted{}, err
	}
	id, err := key.Hash()
	if err != nil {
		return admitted{}, err
	}
	return admitted{key: key, id: id}, nil
}

// The body memo. Strict decode, KeyFor and Hash are together a pure
// function of the body's bytes for the life of a Server (its configuration
// and the kernels are fixed), and a figure re-reads the same few hundred
// points, so a body that was admitted once is looked up instead. The memo
// holds successful admissions only — a rejected body is decoded, and
// rejected, again every time — and is bounded by constants rather than
// evicted: at most memoEntries bodies of at most memoBodyMax bytes (2 MiB
// of bodies at worst, and a sweep's bodies are under 70 bytes); past
// either bound a body simply takes the decoder, as every body does first.
const (
	memoEntries = 4096
	memoBodyMax = 512
)

// admitRun resolves the body of a run submission.
func (s *Server) admitRun(body []byte) (admitted, error) {
	s.memoMu.Lock()
	a, ok := s.memo[string(body)]
	s.memoMu.Unlock()
	if ok {
		return a, nil
	}
	var req RunRequest
	if err := decodeStrict(body, &req); err != nil {
		return admitted{}, fmt.Errorf("bad run request: %v", err)
	}
	a, err := s.resolve(req)
	if err != nil {
		return admitted{}, err
	}
	if len(body) <= memoBodyMax {
		s.memoMu.Lock()
		if len(s.memo) < memoEntries {
			s.memo[string(body)] = a
		}
		s.memoMu.Unlock()
	}
	return a, nil
}
