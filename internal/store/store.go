// Package store is the persistent content-addressed run cache behind
// `regless serve`. Every simulation in this repository is deterministic
// (verified by the multi-SM two-run diffs and the fast-forward
// differentials), so a completed result is cacheable forever — the store
// keeps one file per result, addressed by the hash of a canonical key
// that names everything the result depends on: the kernel's content hash
// (not just its name), the register scheme and OSU capacity, the SM
// configuration, and the robustness instrumentation (sanitize flag, fault
// plan) that can legally change the outcome.
//
// Durability discipline:
//
//   - Writes go to a private file under tmp/ and reach their final path
//     only by rename, so a crash mid-write can never leave a partial
//     entry where Get would find it. Leftover tmp files are swept (and
//     counted) when the store reopens.
//   - Every entry embeds a sha256 checksum of its payload and its full
//     key. Get verifies both (and that the key hashes to the file's own
//     name) before serving; anything torn, truncated, or tampered is
//     moved to quarantine/ and reported as a miss, so the caller
//     recomputes instead of serving corruption.
//   - The read side writes no file: a hit's only trace is the entry's own
//     mtime (GC's LRU stamp), and Sync fsyncs only after a namespace change.
//
// The store holds opaque payload bytes. Serving layers store their
// response encoding verbatim, which is what makes cache hits byte-
// identical to the original computation across process restarts.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"
)

// Key names one simulation result. Every field participates in the
// content address; two keys with equal Hash are interchangeable.
type Key struct {
	// KernelSHA is the sha256 hex digest of the kernel's canonical
	// assembly text (kernels.Hash) — the content component. Bench rides
	// along for human-readable listings but the hash is what guarantees
	// a cached result still matches the code a binary would simulate.
	KernelSHA string `json:"kernel_sha"`
	Bench     string `json:"bench"`
	Scheme    string `json:"scheme"`
	// Capacity is the RegLess OSU capacity in registers per SM;
	// canonicalization folds it to 0 for schemes it does not apply to,
	// mirroring the experiment suite's key normalization.
	Capacity int `json:"capacity"`
	Warps    int `json:"warps"`
	SMs      int `json:"sms"`

	MaxCycles uint64 `json:"max_cycles"`
	Watchdog  uint64 `json:"watchdog,omitempty"`
	// Sanitize and Faults change what a run may legally return (a
	// detected fault is an error, a tolerated one may still shift
	// timing), so instrumented runs never alias clean entries.
	Sanitize bool   `json:"sanitize,omitempty"`
	Faults   string `json:"faults,omitempty"`
	// Report names the deep-dive analyses attached to the payload (the
	// canonical comma-joined form of the run request's "report" list,
	// e.g. "preload,stalls"). Reported results carry extra payload
	// sections, so they must never alias plain entries; the empty string
	// is omitted from the canonical form, keeping every pre-existing
	// entry's address unchanged.
	Report string `json:"report,omitempty"`
}

// reglessScheme mirrors the experiment suite's normKey: capacity is
// meaningful for RegLess schemes only.
func reglessScheme(s string) bool { return s == "regless" || s == "regless-nocomp" }

// Normalized returns the canonical form of the key: capacity folded to 0
// for non-RegLess schemes and the 0/1 SM aliasing resolved (both mean a
// chip of one SM, so keys written before the suite normalised the count
// keep resolving).
func (k Key) Normalized() Key {
	if !reglessScheme(k.Scheme) {
		k.Capacity = 0
	}
	if k.SMs == 0 {
		k.SMs = 1
	}
	return k
}

// isHex reports whether s is entirely lowercase hex.
func isHex(s string) bool {
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Validate rejects keys that could not have come from a real run request:
// they would otherwise mint unreachable cache entries. String fields must
// be valid UTF-8 — json.Marshal substitutes U+FFFD for invalid bytes, so
// a non-UTF-8 key would decode from its own canonical form into a key
// that hashes differently (one logical key, two addresses).
func (k Key) Validate() error {
	if len(k.KernelSHA) != sha256.Size*2 || !isHex(k.KernelSHA) {
		return fmt.Errorf("store: kernel_sha %q is not a sha256 hex digest", k.KernelSHA)
	}
	if k.Bench == "" || strings.ContainsAny(k.Bench, "/\\\x00") || !utf8.ValidString(k.Bench) {
		return fmt.Errorf("store: bad bench name %q", k.Bench)
	}
	if k.Scheme == "" || strings.ContainsAny(k.Scheme, "/\\\x00") || !utf8.ValidString(k.Scheme) {
		return fmt.Errorf("store: bad scheme name %q", k.Scheme)
	}
	if !utf8.ValidString(k.Faults) {
		return fmt.Errorf("store: fault spec is not valid UTF-8")
	}
	if strings.ContainsAny(k.Report, "/\\\x00") || !utf8.ValidString(k.Report) {
		return fmt.Errorf("store: bad report spec %q", k.Report)
	}
	if k.Capacity < 0 {
		return fmt.Errorf("store: negative capacity %d", k.Capacity)
	}
	if k.Warps < 1 {
		return fmt.Errorf("store: warps must be at least 1, got %d", k.Warps)
	}
	if k.SMs < 0 {
		return fmt.Errorf("store: negative sms %d", k.SMs)
	}
	if k.MaxCycles < 1 {
		return fmt.Errorf("store: max_cycles must be at least 1, got %d", k.MaxCycles)
	}
	return nil
}

// Canonical returns the canonical serialized key: validated, normalized,
// and marshaled with a fixed field order. Equal keys produce equal bytes;
// re-canonicalizing a decoded canonical form is the identity (fuzzed).
func (k Key) Canonical() ([]byte, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(k.Normalized())
}

// Hash returns the key's content address: sha256 hex over Canonical.
func (k Key) Hash() (string, error) {
	c, err := k.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(c)
	return hex.EncodeToString(sum[:]), nil
}

// Stats counts store activity since Open. All fields except Bytes (a
// gauge) are monotonic.
type Stats struct {
	// Hits and Misses count Get outcomes; a quarantined entry counts as
	// both a miss and a quarantine.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Puts counts entries durably written (tmp write + rename complete).
	Puts uint64 `json:"puts"`
	// Quarantined counts corrupt entries detected by Get or Verify and
	// moved aside; RecoveredTemps counts partial tmp files swept at Open.
	Quarantined    uint64 `json:"quarantined"`
	RecoveredTemps uint64 `json:"recovered_temps"`
	// Bytes is the current entry-file total; Evictions counts entries
	// removed by GC; GCRuns and GCMicros count GC passes and their total
	// wall time.
	Bytes     int64  `json:"bytes"`
	Evictions uint64 `json:"evictions"`
	GCRuns    uint64 `json:"gc_runs"`
	GCMicros  uint64 `json:"gc_us"`
}

// Store is a disk-backed content-addressed result cache. All methods are
// safe for concurrent use: entries are immutable once renamed into place,
// the counters are atomic, and eviction (the one operation that removes
// live entries) takes mu as a writer while Get/Put hold it as readers —
// GC can never yank an entry out from under an in-flight read or write.
type Store struct {
	dir  string
	opts Options

	mu sync.RWMutex

	hits, misses, puts, quarantined, recovered atomic.Uint64
	evictions, gcRuns, gcMicros                atomic.Uint64
	bytes                                      atomic.Int64
	ops                                        atomic.Uint64
	dirty                                      atomic.Bool // namespace changed since the last Sync
}

// entry is the on-disk format: the full key (so a listing is
// self-describing and Get can cross-check the address), the payload, and
// the payload checksum that detects torn or tampered bytes.
type entry struct {
	Key        Key             `json:"key"`
	PayloadSHA string          `json:"payload_sha256"`
	Payload    json.RawMessage `json:"payload"`
}

// Open opens (creating if needed) a store rooted at dir and sweeps any
// partial tmp files a previous crash left behind. Equivalent to OpenWith
// with zero Options: unbounded, no chaos.
func Open(dir string) (*Store, error) {
	return OpenWith(dir, Options{})
}

// OpenWith opens a store with explicit resource limits and hooks. Besides
// the tmp-file sweep, it re-derives the entry byte total from disk (the
// total is not persisted — disk is the source of truth after a crash) and
// immediately enforces the byte budget, so a warm restart under a smaller
// budget trims itself before serving.
func OpenWith(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	s := &Store{dir: dir, opts: opts}
	for _, d := range []string{dir, s.tmpDir(), s.quarantineDir()} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	temps, err := os.ReadDir(s.tmpDir())
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, t := range temps {
		if err := os.Remove(filepath.Join(s.tmpDir(), t.Name())); err == nil {
			s.recovered.Add(1)
		}
	}
	// One GC pass at open: sums bytes, trims to budget, ages quarantine.
	if _, err := s.GC(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) tmpDir() string        { return filepath.Join(s.dir, "tmp") }
func (s *Store) quarantineDir() string { return filepath.Join(s.dir, "quarantine") }

// path shards entries by the first hash byte to keep directories small.
func (s *Store) path(hash string) string {
	return filepath.Join(s.dir, hash[:2], hash+".json")
}

// Stats returns the activity counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:           s.hits.Load(),
		Misses:         s.misses.Load(),
		Puts:           s.puts.Load(),
		Quarantined:    s.quarantined.Load(),
		RecoveredTemps: s.recovered.Load(),
		Bytes:          s.bytes.Load(),
		Evictions:      s.evictions.Load(),
		GCRuns:         s.gcRuns.Load(),
		GCMicros:       s.gcMicros.Load(),
	}
}

func payloadSHA(p []byte) string {
	sum := sha256.Sum256(p)
	return hex.EncodeToString(sum[:])
}

// Get returns the stored payload for the key, reporting whether it was
// found intact. Corrupt entries (unparseable, checksum mismatch, key not
// matching the address) are quarantined and reported as a miss; only I/O
// errors other than not-exist surface as err. A hit stamps the entry's
// mtime (what GC's LRU ordering reads) and changes nothing else on disk.
func (s *Store) Get(k Key) ([]byte, bool, error) {
	hash, err := k.Hash()
	if err != nil {
		return nil, false, err
	}
	op := s.ops.Add(1)
	s.chaosDelay(op)
	s.mu.RLock()
	defer s.mu.RUnlock()
	path := s.path(hash)
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		s.misses.Add(1)
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: %w", err)
	}
	if s.opts.Chaos.StoreCorrupts(op) && len(raw) > 0 {
		// Simulated bit rot: flip one byte of what was read so the
		// checksum path below detects it and the caller recomputes.
		raw[len(raw)/2] ^= 0x40
	}
	payload, verr := verifyEntry(hash, raw)
	if verr != nil {
		s.quarantine(path)
		s.misses.Add(1)
		return nil, false, nil
	}
	s.hits.Add(1)
	s.touch(path, op)
	return payload, true, nil
}

// verifyEntry checks one entry file body against its address and returns
// the payload bytes.
func verifyEntry(hash string, raw []byte) ([]byte, error) {
	var e entry
	if err := json.Unmarshal(raw, &e); err != nil {
		return nil, fmt.Errorf("store: entry %s: %w", hash, err)
	}
	keyHash, err := e.Key.Hash()
	if err != nil {
		return nil, fmt.Errorf("store: entry %s: bad key: %w", hash, err)
	}
	if keyHash != hash {
		return nil, fmt.Errorf("store: entry %s: key hashes to %s", hash, keyHash)
	}
	if len(e.Payload) == 0 {
		return nil, fmt.Errorf("store: entry %s: empty payload", hash)
	}
	if got := payloadSHA(e.Payload); got != e.PayloadSHA {
		return nil, fmt.Errorf("store: entry %s: payload checksum %s, want %s", hash, got, e.PayloadSHA)
	}
	return e.Payload, nil
}

// quarantine moves a corrupt entry aside (best effort: a concurrent Get
// may have already moved it), stamped now: QuarantineMaxAge counts from here.
func (s *Store) quarantine(path string) {
	dst := filepath.Join(s.quarantineDir(), filepath.Base(path))
	if err := os.Rename(path, dst); err == nil {
		s.quarantined.Add(1)
		s.dirty.Store(true)
		now := s.now()
		_ = os.Chtimes(dst, now, now)
	}
}

// Put durably stores payload under the key: the entry is assembled in a
// private tmp file and renamed into place, so readers only ever see
// complete entries. Re-putting an existing key atomically replaces it
// with identical content (results are deterministic), so concurrent Puts
// of the same key are harmless.
func (s *Store) Put(k Key, payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("store: refusing to put empty payload")
	}
	hash, err := k.Hash()
	if err != nil {
		return err
	}
	op := s.ops.Add(1)
	s.chaosDelay(op)
	if s.opts.Chaos.StoreWriteFails(op) {
		return fmt.Errorf("store: %w", errInjectedDiskFull)
	}
	if err := s.put(k, hash, payload, op); err != nil {
		return err
	}
	// Budget enforcement happens outside the read lock put held.
	s.maybeGC()
	return nil
}

// errInjectedDiskFull marks a chaos-injected write failure; callers treat
// it like any other Put error (result still served from memory, entry
// recomputed next time).
var errInjectedDiskFull = fmt.Errorf("injected disk-full fault")

func (s *Store) put(k Key, hash string, payload []byte, op uint64) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	body, err := json.Marshal(entry{Key: k.Normalized(), PayloadSHA: payloadSHA(payload), Payload: payload})
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(s.tmpDir(), hash+".*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(body); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	final := s.path(hash)
	if err := os.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	// Replacing an existing entry rewrites identical bytes (results are
	// deterministic), so the byte delta of a replacement is zero; only a
	// fresh entry grows the total.
	var old int64
	if fi, err := os.Stat(final); err == nil {
		old = fi.Size()
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	s.dirty.Store(true)
	s.bytes.Add(int64(len(body)) - old)
	s.puts.Add(1)
	s.touch(final, op)
	return nil
}

// Len walks the store and returns the number of entry files present
// (without verifying them; see Verify).
func (s *Store) Len() (int, error) {
	n := 0
	err := s.walkEntries(func(string, string) error { n++; return nil })
	return n, err
}

// Verify walks every entry, checks it parses, matches its checksum, and
// lives at the path its key hashes to, and confirms no partial tmp files
// remain. Corrupt entries are quarantined (counted, like Get) and
// reported in the returned error; the int is the number of intact
// entries. A consistency check for tests and operators, not a hot path.
func (s *Store) Verify() (int, error) {
	temps, err := os.ReadDir(s.tmpDir())
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	if len(temps) > 0 {
		return 0, fmt.Errorf("store: %d partial tmp files present", len(temps))
	}
	intact := 0
	var bad []string
	err = s.walkEntries(func(hash, path string) error {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if _, verr := verifyEntry(hash, raw); verr != nil {
			s.quarantine(path)
			bad = append(bad, verr.Error())
			return nil
		}
		intact++
		return nil
	})
	if err != nil {
		return intact, err
	}
	if len(bad) > 0 {
		return intact, fmt.Errorf("store: %d corrupt entries quarantined: %s", len(bad), strings.Join(bad, "; "))
	}
	return intact, nil
}

// walkEntries visits every entry file as (hash, path), skipping the tmp
// and quarantine directories and anything that is not an entry. An
// access-time sidecar (<hash>.atime, from binaries that predate mtime
// stamps) is unlinked: Open's GC walk meets them all, at the first boot.
func (s *Store) walkEntries(fn func(hash, path string) error) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.walkEntriesLocked(fn)
}

// walkEntriesLocked is walkEntries for callers already holding mu in
// either mode.
func (s *Store) walkEntriesLocked(fn func(hash, path string) error) error {
	shards, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, sh := range shards {
		name := sh.Name()
		if !sh.IsDir() || name == "tmp" || name == "quarantine" {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.dir, name))
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		for _, f := range files {
			hash, ok := strings.CutSuffix(f.Name(), ".json")
			if !ok {
				if strings.HasSuffix(f.Name(), ".atime") {
					os.Remove(filepath.Join(s.dir, name, f.Name()))
				}
				continue
			}
			if err := fn(hash, filepath.Join(s.dir, name, f.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}
