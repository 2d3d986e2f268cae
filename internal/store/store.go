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
//     key, in one fixed byte layout (see verifyEntry). Get checks the file
//     against that layout in place — the requested key's canonical bytes,
//     the checksum over the payload where it lies — before serving;
//     anything torn, truncated, tampered or merely reformatted is moved to
//     quarantine/ and reported as a miss, so the caller recomputes instead
//     of serving corruption.
//   - The read side writes no file: a hit's only trace is the entry's own
//     mtime (GC's LRU stamp), and Sync fsyncs only after a namespace change.
//
// The store holds opaque payload bytes. Serving layers store their
// response encoding verbatim, which is what makes cache hits byte-
// identical to the original computation across process restarts.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"unicode/utf8"

	"repro/internal/jsonstr"
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
	// Capacity is the RegLess OSU capacity in registers per SM. The store
	// keys it as given: the caller canonicalizes (serve's KeyFor folds it
	// to 0 for schemes it does not apply to).
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
	// Model is the epoch of what turns a kernel into a result — the
	// compiler passes and the timing model (experiments.ModelEpoch): a
	// result that moved is a new key. 0 is omitted, as every entry written
	// before it was.
	Model int `json:"model,omitempty"`
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
	if k.Capacity < 0 || k.Model < 0 {
		return fmt.Errorf("store: negative capacity %d or model %d", k.Capacity, k.Model)
	}
	if k.Warps < 1 {
		return fmt.Errorf("store: warps must be at least 1, got %d", k.Warps)
	}
	if k.SMs < 1 {
		return fmt.Errorf("store: sms must be at least 1, got %d", k.SMs)
	}
	if k.MaxCycles < 1 {
		return fmt.Errorf("store: max_cycles must be at least 1, got %d", k.MaxCycles)
	}
	return nil
}

// Canonical returns the canonical serialized key: validated and written
// with a fixed field order. Equal keys produce equal bytes;
// re-canonicalizing a decoded canonical form is the identity (fuzzed).
func (k Key) Canonical() ([]byte, error) {
	return k.appendCanonical(nil)
}

// appendCanonical appends the canonical form to dst: the fields as given,
// in declaration order, the optional ones omitted at their zero value —
// byte for byte what json.Marshal(k) writes (fuzzed against it), without
// the reflection. Every address and every entry ever written hangs off
// these bytes: a field is added at the end, omitted when empty, or not at
// all.
func (k Key) appendCanonical(dst []byte) ([]byte, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	dst = jsonstr.Append(append(dst, `{"kernel_sha":`...), k.KernelSHA)
	dst = jsonstr.Append(append(dst, `,"bench":`...), k.Bench)
	dst = jsonstr.Append(append(dst, `,"scheme":`...), k.Scheme)
	dst = strconv.AppendInt(append(dst, `,"capacity":`...), int64(k.Capacity), 10)
	dst = strconv.AppendInt(append(dst, `,"warps":`...), int64(k.Warps), 10)
	dst = strconv.AppendInt(append(dst, `,"sms":`...), int64(k.SMs), 10)
	dst = strconv.AppendUint(append(dst, `,"max_cycles":`...), k.MaxCycles, 10)
	if k.Watchdog != 0 {
		dst = strconv.AppendUint(append(dst, `,"watchdog":`...), k.Watchdog, 10)
	}
	if k.Sanitize {
		dst = append(dst, `,"sanitize":true`...)
	}
	if k.Faults != "" {
		dst = jsonstr.Append(append(dst, `,"faults":`...), k.Faults)
	}
	if k.Report != "" {
		dst = jsonstr.Append(append(dst, `,"report":`...), k.Report)
	}
	if k.Model != 0 {
		dst = strconv.AppendInt(append(dst, `,"model":`...), int64(k.Model), 10)
	}
	return append(dst, '}'), nil
}

// canonicalBuf sizes the stack buffers canonical forms are appended into:
// a key of the paper's suite is about 190 bytes, and a longer one (a long
// fault plan) only moves the append to the heap.
const canonicalBuf = 384

// Hash returns the key's content address: sha256 hex over Canonical.
func (k Key) Hash() (string, error) {
	var buf [canonicalBuf]byte
	c, err := k.appendCanonical(buf[:0])
	if err != nil {
		return "", err
	}
	return sha256Hex(c), nil
}

// sha256Hex is the digest both addresses and payload checksums are
// written as.
func sha256Hex(p []byte) string {
	sum := sha256.Sum256(p)
	var hx [sha256.Size * 2]byte
	hex.Encode(hx[:], sum[:])
	return string(hx[:])
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
	// shards are the 256 entry directories <dir>/00 to <dir>/ff, each
	// made once in the store's life (see place), whose locks order the
	// Puts into them.
	shards [256]struct {
		mu   sync.Mutex
		made bool
	}

	hits, misses, puts, quarantined, recovered atomic.Uint64
	evictions, gcRuns, gcMicros                atomic.Uint64
	bytes                                      atomic.Int64
	ops                                        atomic.Uint64
	dirty                                      atomic.Bool // namespace changed since the last Sync
}

// An entry file is, byte for byte,
//
//	{"key":<canonical key>,"payload_sha256":"<64 hex>","payload":<payload>}
//
// — the full key (so a listing is self-describing and the address can be
// cross-checked), the checksum that detects torn or tampered bytes, and
// the payload verbatim. This is what json.Marshal of the three fields
// writes for a payload that is itself json.Marshal output, so stores
// written before the layout was a contract read back unchanged.
var (
	entryKeyField     = []byte(`{"key":`)
	entrySumField     = []byte(`,"payload_sha256":"`)
	entryPayloadField = []byte(`","payload":`)
)

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
	s := &Store{dir: filepath.Clean(dir), opts: opts}
	for _, sub := range []string{"", string(tmpName), string(quarantineName)} {
		if err := os.MkdirAll(filepath.Join(s.dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	err := s.eachIn(tmpName, func(tmp handle, name []byte) error {
		if tmp.unlink(name) == nil {
			s.recovered.Add(1)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// One GC pass at open: sums bytes, trims to budget, ages quarantine.
	if _, err := s.GC(); err != nil {
		return nil, err
	}
	return s, nil
}

// The store reaches the disk through a handful of primitives (dirio_*.go):
// open relative to a directory, read a directory's names into a buffer,
// stat and unlink relative to a directory, stamp an open file's times and
// rename. Their names and paths are NUL-terminated byte strings: a
// directory entry's own bytes, or a path appendPath builds in a buffer on
// the caller's stack.

// Names in the store's directory that are not shards, and the suffixes of
// the names in a shard that the walk reads.
var (
	tmpName        = []byte("tmp")
	quarantineName = []byte("quarantine")
	jsonSuffix     = []byte(".json\x00")
	atimeSuffix    = []byte(".atime\x00")
	nul            = []byte{0}
)

// pathBuf sizes the stack buffers paths are built in: a longer store
// directory only moves the path to the heap.
const pathBuf = 512

// appendPath appends <dir>/<elem>/..., NUL-terminated, to dst (dir as Open
// cleaned it). An elem may end in its own NUL, as a name nextName returns
// does; an empty one is left out.
func (s *Store) appendPath(dst []byte, elems ...[]byte) []byte {
	dst = append(dst, s.dir...)
	for _, e := range elems {
		if e = bytes.TrimSuffix(e, nul); len(e) > 0 {
			dst = append(append(dst, '/'), e...)
		}
	}
	return append(dst, 0)
}

// appendEntryPath appends the entry file of the canonical key whose sha256
// is sum: <dir>/<hh>/<hash>.json, sharded by the hash's first byte hh to
// keep directories small.
func (s *Store) appendEntryPath(dst []byte, sum *[sha256.Size]byte) []byte {
	var name [sha256.Size*2 + len(".json")]byte
	hex.Encode(name[:], sum[:])
	copy(name[sha256.Size*2:], ".json")
	return s.appendPath(dst, name[:2], name[:])
}

// cstr is a NUL-terminated path as a string, for an error message.
func cstr(p []byte) string { return string(bytes.TrimSuffix(p, nul)) }

// isName reports whether the NUL-terminated name is want.
func isName(name, want []byte) bool { return bytes.Equal(bytes.TrimSuffix(name, nul), want) }

// isDot reports whether a directory entry's name is "." or "..".
func isDot(name []byte) bool { return string(name) == "." || string(name) == ".." }

// nameBufs recycles the buffers directory names are read into, two per
// walk in flight (the store's directory and a shard).
var nameBufs = sync.Pool{New: func() any { b := make([]byte, 0, 8<<10); return &b }}

// eachName calls fn with every name in the open directory d, NUL-terminated
// and valid only during the call.
func eachName(d handle, fn func(name []byte) error) error {
	buf := nameBufs.Get().(*[]byte)
	defer nameBufs.Put(buf)
	for {
		batch, err := d.readNames(*buf)
		*buf = batch
		if err != nil {
			return fmt.Errorf("store: reading a directory: %w", err)
		}
		if len(batch) == 0 {
			return nil
		}
		for name, rest := nextName(batch); name != nil; name, rest = nextName(rest) {
			if err := fn(name); err != nil {
				return err
			}
		}
	}
}

// eachIn calls fn with every name in the store's directory sub (the store's
// own for none) and that directory, open for the call.
func (s *Store) eachIn(sub []byte, fn func(d handle, name []byte) error) error {
	var pb [pathBuf]byte
	path := s.appendPath(pb[:0], sub)
	d, err := openAt(cwd, path, dirFlags, 0)
	if err != nil {
		return fmt.Errorf("store: open %s: %w", cstr(path), err)
	}
	defer d.close()
	return eachName(d, func(name []byte) error { return fn(d, name) })
}

// eachShard calls fn with every shard directory, open for the call, and its
// name: every directory in the store's but tmp/ and quarantine/. What is a
// directory is what opens as one: a d_type may be DT_UNKNOWN.
func (s *Store) eachShard(fn func(sh handle, shard []byte) error) error {
	return s.eachIn(nil, func(root handle, name []byte) error {
		if isName(name, tmpName) || isName(name, quarantineName) {
			return nil
		}
		sh, err := openAt(root, name, dirFlags, 0)
		if errors.Is(err, syscall.ENOTDIR) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("store: open %s/%s: %w", s.dir, cstr(name), err)
		}
		defer sh.close()
		return fn(sh, name)
	})
}

// entryBufs recycles the buffers entry files are read into and laid out
// in, one per View or Put in flight: the only copy of a payload a hit
// allocates is the one its caller keeps.
var entryBufs = sync.Pool{New: func() any { b := make([]byte, 0, 4<<10); return &b }}

// putEntryBuf hands a buffer back, unless one oversized entry grew it past
// 64 KB: the pool is for the suite's 2 KB entries.
func putEntryBuf(b *[]byte, grown []byte) {
	if cap(grown) <= 64<<10 {
		*b = grown[:0]
		entryBufs.Put(b)
	}
}

// readAll reads the open file f to its end into buf, growing it as needed:
// no fstat to size it, the read that returns nothing ends it.
func readAll(f handle, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, cap(buf)+512)
		}
		n, err := f.read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if n == 0 || err != nil {
			return buf, err
		}
	}
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

// Get returns a copy of the stored payload for the key, reporting whether
// it was found intact: View, keeping what it is shown.
func (s *Store) Get(k Key) (payload []byte, ok bool, err error) {
	ok, err = s.View(k, func(p []byte) { payload = bytes.Clone(p) })
	return payload, ok, err
}

// View calls fn with the stored payload for the key if it is found
// intact, and reports whether it was. The entry is read into a recycled
// buffer: the payload is valid only during the call, and fn must neither
// keep nor modify it. Corrupt entries (not the layout Put writes for this
// key, checksum mismatch, unparseable payload) are quarantined and
// reported as a miss; only I/O errors other than not-exist surface as
// err. A hit stamps the entry's mtime (what GC's LRU ordering reads) and
// changes nothing else on disk.
func (s *Store) View(k Key, fn func(payload []byte)) (bool, error) {
	var kb [canonicalBuf]byte
	canon, err := k.appendCanonical(kb[:0])
	if err != nil {
		return false, err
	}
	op := s.ops.Add(1)
	s.chaosDelay(op)
	buf := entryBufs.Get().(*[]byte)
	raw, payload, err := s.read(canon, op, *buf)
	defer putEntryBuf(buf, raw)
	if payload == nil {
		return false, err
	}
	fn(payload) // the buffer is private: no lock held
	return true, nil
}

// read is View's work under the read lock: the entry for canon read into
// buf (returned as raw, however it grew), checked, and on a hit stamped
// and its payload returned, a sub-slice of raw; a miss returns none. One
// descriptor serves the read, the stamp and a quarantine.
func (s *Store) read(canon []byte, op uint64, buf []byte) (raw, payload []byte, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sum := sha256.Sum256(canon)
	var pb [pathBuf]byte
	path := s.appendEntryPath(pb[:0], &sum)
	f, err := openAt(cwd, path, syscall.O_RDONLY, 0)
	if errors.Is(err, fs.ErrNotExist) {
		s.misses.Add(1)
		return buf, nil, nil
	}
	if err != nil {
		return buf, nil, fmt.Errorf("store: open %s: %w", cstr(path), err)
	}
	defer f.close()
	raw, err = readAll(f, buf)
	if err != nil {
		return raw, nil, fmt.Errorf("store: read %s: %w", cstr(path), err)
	}
	if s.opts.Chaos.StoreCorrupts(op) && len(raw) > 0 {
		// Simulated bit rot: flip one byte of what was read so the
		// checks below detect it and the caller recomputes.
		raw[len(raw)/2] ^= 0x40
	}
	payload, verr := verifyEntry(canon, raw)
	if verr != nil {
		s.quarantine(f, path)
		s.misses.Add(1)
		return raw, nil, nil
	}
	s.hits.Add(1)
	s.touch(f, op)
	return raw, payload, nil
}

var (
	errEntryLayout   = errors.New("not the entry layout for its key")
	errEntryChecksum = errors.New("payload does not match its checksum")
	errEntryPayload  = errors.New("payload is not JSON")
)

// verifyEntry checks an entry file's bytes against the canonical form of
// the key it is supposed to hold and returns the payload, a sub-slice of
// raw. In order: the file is exactly the entry layout around canon (the
// key is compared as its preimage, not as a hash of it), the checksum
// field is the sha256 of the payload bytes where they lie, and the payload
// is one JSON value (isJSONValue). Nothing is decoded and nothing
// allocated; a file that says the same thing in other bytes (reordered
// fields, added whitespace) fails like any other damage and is recomputed.
func verifyEntry(canon, raw []byte) ([]byte, error) {
	rest := raw
	for _, part := range [...][]byte{entryKeyField, canon, entrySumField} {
		var ok bool
		if rest, ok = bytes.CutPrefix(rest, part); !ok {
			return nil, errEntryLayout
		}
	}
	if len(rest) < sha256.Size*2 {
		return nil, errEntryLayout
	}
	want := rest[:sha256.Size*2]
	payload, ok := bytes.CutPrefix(rest[sha256.Size*2:], entryPayloadField)
	if !ok || len(payload) < 2 || payload[len(payload)-1] != '}' {
		return nil, errEntryLayout
	}
	payload = payload[:len(payload)-1]
	sum := sha256.Sum256(payload)
	var got [sha256.Size * 2]byte
	hex.Encode(got[:], sum[:])
	if !bytes.Equal(got[:], want) {
		return nil, errEntryChecksum
	}
	if !isJSONValue(payload) {
		return nil, errEntryPayload
	}
	return payload, nil
}

// isJSONValue reports whether p is one JSON value and nothing else: no
// whitespace around it either, which a decoder reading the entry would not
// count into the value (and so not into its checksum).
func isJSONValue(p []byte) bool {
	return len(bytes.TrimSpace(p)) == len(p) && json.Valid(p)
}

// verifyFile is verifyEntry for a caller that holds only the file's name
// (Verify's walk): the key is recovered from the file itself. The key
// region ends at the first `},"payload_sha256":"` — a sequence no JSON
// string can contain, since a quote inside one is escaped — and must
// decode to a valid key that re-canonicalises to exactly those bytes and
// hashes to the file's name; from there it is verifyEntry.
func verifyFile(hash string, raw []byte) error {
	rest, ok := bytes.CutPrefix(raw, entryKeyField)
	end := bytes.Index(rest, append([]byte{'}'}, entrySumField...))
	if !ok || end < 0 {
		return errEntryLayout
	}
	region := rest[:end+1]
	var k Key
	if err := json.Unmarshal(region, &k); err != nil {
		return fmt.Errorf("bad key: %w", err)
	}
	canon, err := k.Canonical()
	if err != nil {
		return fmt.Errorf("bad key: %w", err)
	}
	if !bytes.Equal(canon, region) {
		return errors.New("key is not in canonical form")
	}
	if got := sha256Hex(canon); got != hash {
		return fmt.Errorf("key hashes to %s", got)
	}
	_, err = verifyEntry(canon, raw)
	return err
}

// quarantine moves the corrupt entry open as f at path aside (best effort:
// a concurrent Get may have already moved it), stamped now first: its day
// of retention counts from here, and the rename keeps the stamp.
func (s *Store) quarantine(f handle, path []byte) {
	var qb [pathBuf]byte
	dst := s.appendPath(qb[:0], quarantineName, path[bytes.LastIndexByte(path, '/')+1:])
	_ = f.stamp(s.now().UnixNano()) // best effort, as every stamp
	if rename(path, dst) == nil {
		s.quarantined.Add(1)
		s.dirty.Store(true)
	}
}

// Put durably stores payload under the key: the entry is assembled in a
// private tmp file and renamed into place, so readers only ever see
// complete entries. The payload must be one JSON value (not empty, no
// whitespace around it) and is stored verbatim. Re-putting an existing key
// atomically replaces it with identical content (results are
// deterministic), so concurrent Puts of the same key are harmless.
func (s *Store) Put(k Key, payload []byte) error {
	if !isJSONValue(payload) {
		return fmt.Errorf("store: refusing to put a payload that is not exactly one JSON value")
	}
	var buf [canonicalBuf]byte
	canon, err := k.appendCanonical(buf[:0])
	if err != nil {
		return err
	}
	op := s.ops.Add(1)
	s.chaosDelay(op)
	if s.opts.Chaos.StoreWriteFails(op) {
		return fmt.Errorf("store: %w", errInjectedDiskFull)
	}
	resync, err := s.put(canon, payload, op)
	// Budget enforcement, and the re-derived total after a shard vanished,
	// happen outside the read lock put held.
	if resync {
		s.GC()
	} else if err == nil {
		s.maybeGC()
	}
	return err
}

// errInjectedDiskFull marks a chaos-injected write failure; callers treat
// it like any other Put error (result still served from memory, entry
// recomputed next time).
var errInjectedDiskFull = fmt.Errorf("injected disk-full fault")

// appendEntry appends the entry file for a canonical key and its payload.
func appendEntry(dst, canon, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	dst = append(append(dst, entryKeyField...), canon...)
	dst = hex.AppendEncode(append(dst, entrySumField...), sum[:])
	dst = append(append(dst, entryPayloadField...), payload...)
	return append(dst, '}')
}

// put writes the entry to a tmp file and renames it into place under the
// read lock. resync reports that the key's shard directory had vanished
// under the live store, taking whatever entries it held out of the byte
// total: the caller re-derives the total once the lock is released.
func (s *Store) put(canon, payload []byte, op uint64) (resync bool, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sum := sha256.Sum256(canon)
	var fb, tb [pathBuf]byte
	final := s.appendEntryPath(fb[:0], &sum)
	buf := entryBufs.Get().(*[]byte)
	body := appendEntry(*buf, canon, payload)
	defer putEntryBuf(buf, body)
	tmp, err := s.writeTmp(tb[:0], final, body, op)
	if err != nil {
		return false, fmt.Errorf("store: %w", err)
	}
	old, resync, err := s.place(tmp, final, sum[0])
	if err != nil {
		_ = cwd.unlink(tmp) // the rename's error is the one to report
		return resync, fmt.Errorf("store: %w", err)
	}
	s.dirty.Store(true)
	s.bytes.Add(int64(len(body)) - old)
	s.puts.Add(1)
	return resync, nil
}

// writeTmp writes body to the private file a Put places at final and
// returns its path, built in dst: <dir>/tmp/<hash>.json.<random>, created
// exclusively, so a clash draws another name. The file is stamped as the
// entry's access (the rename that places it keeps its mtime) and closed; on
// failure it is removed.
func (s *Store) writeTmp(dst, final, body []byte, op uint64) ([]byte, error) {
	base := final[bytes.LastIndexByte(final, '/')+1:]
	for {
		p := s.appendPath(dst, tmpName, base)
		p = append(strconv.AppendUint(append(p[:len(p)-1], '.'), rand.Uint64(), 36), 0)
		f, err := openAt(cwd, p, syscall.O_WRONLY|syscall.O_CREAT|syscall.O_EXCL, 0o600)
		if errors.Is(err, fs.ErrExist) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("create %s: %w", cstr(p), err)
		}
		err = f.write(body)
		if err == nil {
			s.touch(f, op)
		}
		if cerr := f.close(); err == nil {
			err = cerr
		}
		if err != nil {
			_ = cwd.unlink(p) // the write's error is the one to report
			return nil, fmt.Errorf("write %s: %w", cstr(p), err)
		}
		return p, nil
	}
}

// place renames the tmp file to final, its entry's path in shard, and
// returns the size of the entry it replaced. A replacement rewrites
// identical bytes (results are deterministic), so only a fresh entry grows
// the total, and the shard's lock makes the size read and the rename one
// step: of two Puts of one key, the second sees the first's entry. A shard
// directory is made by the first Put into it; if it has since vanished,
// the rename finds no directory, and place makes it again, retries once
// and reports resync.
func (s *Store) place(tmp, final []byte, shard byte) (old int64, resync bool, err error) {
	sh := &s.shards[shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !sh.made {
		if err := mkdirShard(final); err != nil {
			return 0, false, err
		}
		sh.made = true
	}
	if size, _, err := cwd.stat(final); err == nil {
		old = size
	}
	err = rename(tmp, final)
	if errors.Is(err, fs.ErrNotExist) {
		if err := mkdirShard(final); err != nil {
			return 0, true, err
		}
		resync, err = true, rename(tmp, final)
	}
	if err != nil {
		return old, resync, fmt.Errorf("rename %s %s: %w", cstr(tmp), cstr(final), err)
	}
	return old, resync, nil
}

// mkdirShard makes the directory an entry path lies in, if it is missing:
// its path is the entry's up to the last slash, NUL-terminated on the
// stack.
func mkdirShard(path []byte) error {
	var db [pathBuf]byte
	dir := append(append(db[:0], path[:bytes.LastIndexByte(path, '/')]...), 0)
	if err := mkdir(dir, 0o755); err != nil && !errors.Is(err, fs.ErrExist) {
		return err
	}
	return nil
}

// Len walks the store and returns the number of entry files present
// (without verifying them; see Verify).
func (s *Store) Len() (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	err := s.walkLocked(func(handle, []byte, []byte) error { n++; return nil })
	return n, err
}

// Verify walks every entry, checks it is the layout Put writes for a
// valid key that hashes to the file's own name (verifyFile), checksum and
// payload included, and confirms no partial tmp files remain. Corrupt
// entries are quarantined (counted, like Get) and reported in the returned
// error; the int is the number of intact entries. A consistency check for
// tests and operators, not a hot path.
func (s *Store) Verify() (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	temps := 0
	if err := s.eachIn(tmpName, func(handle, []byte) error { temps++; return nil }); err != nil {
		return 0, err
	}
	if temps > 0 {
		return 0, fmt.Errorf("store: %d partial tmp files present", temps)
	}
	intact := 0
	var bad []string
	buf := entryBufs.Get().(*[]byte)
	err := s.walkLocked(func(sh handle, shard, name []byte) error {
		var pb [pathBuf]byte
		path := s.appendPath(pb[:0], shard, name)
		f, err := openAt(sh, name, syscall.O_RDONLY, 0)
		if err != nil {
			return fmt.Errorf("store: open %s: %w", cstr(path), err)
		}
		defer f.close()
		raw, err := readAll(f, (*buf)[:0])
		*buf = raw
		if err != nil {
			return fmt.Errorf("store: read %s: %w", cstr(path), err)
		}
		hash := string(bytes.TrimSuffix(name, jsonSuffix))
		if verr := verifyFile(hash, raw); verr != nil {
			s.quarantine(f, path)
			bad = append(bad, fmt.Sprintf("entry %s: %v", hash, verr))
			return nil
		}
		intact++
		return nil
	})
	putEntryBuf(buf, *buf)
	if err != nil {
		return intact, err
	}
	if len(bad) > 0 {
		return intact, fmt.Errorf("store: %d corrupt entries quarantined: %s", len(bad), strings.Join(bad, "; "))
	}
	return intact, nil
}

// walkLocked visits every entry file, with mu held in either mode: fn gets
// the shard directory it lies in (open for the call), the shard's name and
// the entry's, both NUL-terminated and valid only during the call. Names in
// a shard other than <hash>.json are skipped, and an access-time sidecar
// (<hash>.atime, from binaries that predate mtime stamps) is unlinked:
// Open's GC walk meets them all, at the first boot.
func (s *Store) walkLocked(fn func(sh handle, shard, name []byte) error) error {
	return s.eachShard(func(sh handle, shard []byte) error {
		return eachName(sh, func(name []byte) error {
			switch {
			case bytes.HasSuffix(name, jsonSuffix):
				return fn(sh, shard, name)
			case bytes.HasSuffix(name, atimeSuffix):
				_ = sh.unlink(name) // a sidecar left behind is swept at the next walk
			}
			return nil
		})
	})
}
