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
	"io"
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

func (s *Store) tmpDir() string        { return filepath.Join(s.dir, "tmp") }
func (s *Store) quarantineDir() string { return filepath.Join(s.dir, "quarantine") }

// pathOf is the entry file of a canonical key, <dir>/<hh>/<hash>.json
// (dir as Open cleaned it, hash the sha256 hex of canon, sharded by its
// first byte hh to keep directories small), built in one allocation, and
// the shard.
func (s *Store) pathOf(canon []byte) (string, byte) {
	sum := sha256.Sum256(canon)
	var buf [256]byte
	p := append(append(buf[:0], s.dir...), filepath.Separator)
	p = append(hex.AppendEncode(p, sum[:1]), filepath.Separator)
	return string(append(hex.AppendEncode(p, sum[:]), ".json"...)), sum[0]
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

// readEntry reads the file at path into buf, growing it as needed: no
// fstat to size it, the read that returns EOF ends it.
func readEntry(path string, buf []byte) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return buf, err
	}
	defer f.Close()
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, cap(buf)+512)
		}
		n, err := f.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
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
// and its payload returned, a sub-slice of raw; a miss returns none.
func (s *Store) read(canon []byte, op uint64, buf []byte) (raw, payload []byte, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	path, _ := s.pathOf(canon)
	raw, err = readEntry(path, buf)
	if os.IsNotExist(err) {
		s.misses.Add(1)
		return raw, nil, nil
	}
	if err != nil {
		return raw, nil, fmt.Errorf("store: %w", err)
	}
	if s.opts.Chaos.StoreCorrupts(op) && len(raw) > 0 {
		// Simulated bit rot: flip one byte of what was read so the
		// checks below detect it and the caller recomputes.
		raw[len(raw)/2] ^= 0x40
	}
	payload, verr := verifyEntry(canon, raw)
	if verr != nil {
		s.quarantine(path)
		s.misses.Add(1)
		return raw, nil, nil
	}
	s.hits.Add(1)
	s.touch(path, op)
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

// quarantine moves a corrupt entry aside (best effort: a concurrent Get
// may have already moved it), stamped now: its day of retention counts
// from here.
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
	final, shard := s.pathOf(canon)
	buf := entryBufs.Get().(*[]byte)
	body := appendEntry(*buf, canon, payload)
	defer putEntryBuf(buf, body)
	tmp, err := s.createTmp(final)
	if err != nil {
		return false, fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(body); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return false, fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return false, fmt.Errorf("store: %w", err)
	}
	old, resync, err := s.place(tmp.Name(), final, shard)
	if err != nil {
		os.Remove(tmp.Name())
		return resync, fmt.Errorf("store: %w", err)
	}
	s.dirty.Store(true)
	s.bytes.Add(int64(len(body)) - old)
	s.puts.Add(1)
	s.touch(final, op)
	return resync, nil
}

// createTmp creates the private file a Put writes the entry at final into:
// <dir>/tmp/<hash>.json.<random>, its path built in one allocation (where
// os.CreateTemp makes five), and created exclusively, so a clash draws
// another name.
func (s *Store) createTmp(final string) (*os.File, error) {
	for {
		var buf [256]byte
		p := append(append(buf[:0], s.dir...), filepath.Separator)
		p = append(append(append(p, "tmp"...), filepath.Separator), filepath.Base(final)...)
		p = strconv.AppendUint(append(p, '.'), rand.Uint64(), 36)
		f, err := os.OpenFile(string(p), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
		if !errors.Is(err, fs.ErrExist) {
			return f, err
		}
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
func (s *Store) place(tmp, final string, shard byte) (old int64, resync bool, err error) {
	sh := &s.shards[shard]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !sh.made {
		if err := mkdirShard(final); err != nil {
			return 0, false, err
		}
		sh.made = true
	}
	old = sizeOf(final)
	err = rename(tmp, final)
	if errors.Is(err, syscall.ENOENT) {
		if err := mkdirShard(final); err != nil {
			return 0, true, err
		}
		resync, err = true, rename(tmp, final)
	}
	return old, resync, err
}

// mkdirShard makes the directory an entry path lies in, if it is missing.
func mkdirShard(path string) error {
	if err := os.Mkdir(filepath.Dir(path), 0o755); err != nil && !errors.Is(err, fs.ErrExist) {
		return err
	}
	return nil
}

// sizeOf is the size of the file at path, 0 if there is none, read into a
// Stat_t on the stack where os.Stat would allocate a FileInfo.
func sizeOf(path string) int64 {
	var st syscall.Stat_t
	for {
		switch err := syscall.Stat(path, &st); err {
		case nil:
			return int64(st.Size)
		case syscall.EINTR:
		default:
			return 0
		}
	}
}

// rename is os.Rename without its Lstat of the destination, which only
// guards against replacing a directory: an entry path never names one.
func rename(from, to string) error {
	for {
		err := syscall.Rename(from, to)
		if err == nil {
			return nil
		}
		if err != syscall.EINTR {
			return &os.LinkError{Op: "rename", Old: from, New: to, Err: err}
		}
	}
}

// Len walks the store and returns the number of entry files present
// (without verifying them; see Verify).
func (s *Store) Len() (int, error) {
	n := 0
	err := s.walkEntries(func(string, string) error { n++; return nil })
	return n, err
}

// Verify walks every entry, checks it is the layout Put writes for a
// valid key that hashes to the file's own name (verifyFile), checksum and
// payload included, and confirms no partial tmp files remain. Corrupt
// entries are quarantined (counted, like Get) and reported in the returned
// error; the int is the number of intact entries. A consistency check for
// tests and operators, not a hot path.
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
		if verr := verifyFile(hash, raw); verr != nil {
			s.quarantine(path)
			bad = append(bad, fmt.Sprintf("entry %s: %v", hash, verr))
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
