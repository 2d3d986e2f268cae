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
	"bytes"
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

// KeyFor canonicalizes a run request against this server's configuration:
// it is the one place a store key's rule is said — the capacity is the
// command line's (experiments.CanonicalCapacity) and the SM count New's
// normalized Options, and the store keeps the key as given. Errors are
// admission errors (unknown bench/scheme, bad capacity) and map to 4xx.
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
	}
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

// The body memo. Reading a body, KeyFor and Hash are together a pure
// function of the body's bytes for the life of a Server (its configuration
// and the kernels are fixed), and a figure re-reads the same few hundred
// points, so a body that was admitted once is looked up instead. The
// scanner made a first reading cheap, not a repeated one: without the memo
// every job-map hit canonicalises and hashes its key again, and
// BenchmarkHandlerMemHit goes from 1.4 µs and 2 allocations to 2.6 µs and
// 4 (2-vCPU Xeon). The memo holds successful admissions only — a rejected
// body is read, and rejected, again every time — and is bounded by
// constants rather than evicted: at most memoEntries bodies of at most
// memoBodyMax bytes (2 MiB of bodies at worst, and a sweep's bodies are
// under 70 bytes); past either bound a body is simply read again, as every
// body is first.
const (
	memoEntries = 4096
	memoBodyMax = 512
)

// admitRun resolves the body of a run submission: from the memo, else
// read by scanRunRequest, else by decodeStrict, the reference for what a
// body says.
func (s *Server) admitRun(body []byte) (admitted, error) {
	s.memoMu.Lock()
	a, ok := s.memo[string(body)]
	s.memoMu.Unlock()
	if ok {
		return a, nil
	}
	req, ok := scanRunRequest(body)
	if !ok {
		// Declared here, so that only a body the scanner declines puts the
		// request the decoder fills on the heap.
		var decoded RunRequest
		if err := decodeStrict(body, &decoded); err != nil {
			return admitted{}, fmt.Errorf("bad run request: %v", err)
		}
		req = decoded
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

// The names a scanned body may carry, as their packages spell them.
var (
	benchNames  = kernels.Names()
	schemeNames = experiments.Schemes()
)

// scanRunRequest reads a run body spelled exactly as json.Marshal spells a
// RunRequest without a report — {"bench":"B","scheme":"S"}, with
// ,"capacity":N before the brace when N is not 0 — where B is a benchmark
// of the suite, S a scheme and N a positive decimal of at most nine digits
// without a leading zero. Those names are made of [A-Za-z0-9_.+-], so a
// name that matches one needs no unescaping, and the strings returned are
// the packages' own: nothing aliases body and nothing is allocated. Any
// other body, well-formed or not, is not ok and goes to the decoder; a body
// the scanner does accept, decodeStrict reads as the same request
// (FuzzRunRequestScan).
func scanRunRequest(body []byte) (RunRequest, bool) {
	var req RunRequest
	rest, ok := bytes.CutPrefix(body, []byte(`{"bench":"`))
	if ok {
		req.Bench, rest, ok = cutName(rest, benchNames)
	}
	if ok {
		rest, ok = bytes.CutPrefix(rest, []byte(`,"scheme":"`))
	}
	if ok {
		req.Scheme, rest, ok = cutName(rest, schemeNames)
	}
	if !ok {
		return RunRequest{}, false
	}
	if string(rest) == "}" {
		return req, true
	}
	digits, ok := bytes.CutPrefix(rest, []byte(`,"capacity":`))
	if !ok || len(digits) < 2 || len(digits) > 10 || digits[0] == '0' || digits[len(digits)-1] != '}' {
		return RunRequest{}, false
	}
	for _, c := range digits[:len(digits)-1] {
		if c < '0' || c > '9' {
			return RunRequest{}, false
		}
		req.Capacity = req.Capacity*10 + int(c-'0')
	}
	return req, true
}

// cutName reads a JSON string's body up to its closing quote and returns
// the one of names it spells, and what follows the quote.
func cutName[S ~string](b []byte, names []S) (string, []byte, bool) {
	end := bytes.IndexByte(b, '"')
	if end < 0 {
		return "", b, false
	}
	for _, n := range names {
		if string(b[:end]) == string(n) {
			return string(n), b[end+1:], true
		}
	}
	return "", b, false
}
