package serve

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
	"sync"

	"repro/internal/asm"
	"repro/internal/kernels"
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
