package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// entry is the on-disk format as a Go value. Every binary before the
// layout became a contract wrote an entry as json.Marshal of this struct
// and read one back with json.Unmarshal into it.
type entry struct {
	Key        Key             `json:"key"`
	PayloadSHA string          `json:"payload_sha256"`
	Payload    json.RawMessage `json:"payload"`
}

// oracleVerifyEntry is that older, decode-based verifier, kept as the
// oracle the in-place one is held to: it accepts every file that says the
// right thing, in whatever bytes.
func oracleVerifyEntry(hash string, raw []byte) ([]byte, error) {
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
	if got := sha256Hex(e.Payload); got != e.PayloadSHA {
		return nil, fmt.Errorf("store: entry %s: payload checksum %s, want %s", hash, got, e.PayloadSHA)
	}
	return e.Payload, nil
}

// goldenKeys are the three keys testdata/golden holds entries for: a plain
// one, one with every optional field set, and one whose bench name needs
// each kind of escape. The files were written by the last binary whose Put
// went through json.Marshal and are named by the hash it computed; each key
// is spelled as that binary wrote it (a baseline key at capacity 0), since
// the store keys what it is given.
func goldenKeys() []Key {
	full := testKey("bfs")
	full.Scheme, full.Capacity, full.Warps, full.SMs = "regless-nocomp", 256, 64, 4
	full.MaxCycles, full.Watchdog, full.Sanitize = 60_000_000, 20_000, true
	full.Faults, full.Report = "osu-tag@200; seed=3", "preload,stalls"
	esc := testKey(`b+tree <"é"&>`)
	esc.Scheme, esc.Capacity = "baseline", 0
	return []Key{testKey("nw"), full, esc}
}

// goldenPayload is what the golden entries hold: encoding/json output with
// escapes of its own.
func goldenPayload(t *testing.T) []byte {
	t.Helper()
	p, err := json.Marshal(struct {
		Cycles int     `json:"cycles"`
		Note   string  `json:"note"`
		IPC    float64 `json:"ipc"`
	}{1120, `a < b & "c"`, 0.96})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestGoldenAddressesAndEntryBytes pins every address and every entry byte
// to what the json.Marshal-based binaries computed, in both directions: a
// directory either kind of binary populated serves hits and verifies
// intact under the other.
func TestGoldenAddressesAndEntryBytes(t *testing.T) {
	payload := goldenPayload(t)
	fresh := mustOpen(t, t.TempDir())
	oldDir := t.TempDir()
	for _, k := range goldenKeys() {
		hash, err := k.Hash()
		if err != nil {
			t.Fatal(err)
		}
		golden, err := os.ReadFile(filepath.Join("testdata", "golden", hash+".json"))
		if err != nil {
			t.Fatalf("%s: address moved, or the golden file is gone: %v", k.Bench, err)
		}
		// What Put writes is what the old binary wrote...
		if err := fresh.Put(k, payload); err != nil {
			t.Fatal(err)
		}
		wrote, err := os.ReadFile(entryPath(t, fresh, k))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wrote, golden) {
			t.Fatalf("%s: Put wrote\n%s\nthe golden entry is\n%s", k.Bench, wrote, golden)
		}
		// ...which is json.Marshal of the entry, and which the old reader takes.
		marshaled, err := json.Marshal(entry{Key: k, PayloadSHA: sha256Hex(payload), Payload: payload})
		if err != nil || !bytes.Equal(marshaled, golden) {
			t.Fatalf("%s: json.Marshal(entry) = %s, %v", k.Bench, marshaled, err)
		}
		if got, err := oracleVerifyEntry(hash, wrote); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("%s: the decode-based reader rejects what Put wrote: %v", k.Bench, err)
		}
		// Lay the old binary's file out as its store would have.
		dst := filepath.Join(oldDir, hash[:2], hash+".json")
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, golden, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := mustOpen(t, oldDir)
	for _, k := range goldenKeys() {
		if got, ok, err := old.Get(k); err != nil || !ok || !bytes.Equal(got, payload) {
			t.Fatalf("%s: entry written by the old binary: ok=%v err=%v payload %s", k.Bench, ok, err, got)
		}
	}
	for _, s := range []*Store{fresh, old} {
		if n, err := s.Verify(); err != nil || n != len(goldenKeys()) {
			t.Fatalf("Verify = %d, %v, want %d intact", n, err, len(goldenKeys()))
		}
		if q := s.Stats().Quarantined; q != 0 {
			t.Fatalf("%d entries quarantined", q)
		}
	}
}

// sortedFields re-marshals a JSON object with its fields in alphabetical
// order: the same key, valid JSON, not the canonical form.
func sortedFields(t *testing.T, object []byte) []byte {
	t.Helper()
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(object, &fields); err != nil {
		t.Fatal(err)
	}
	sorted, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	return sorted
}

// sameMeaning lists rewrites of a good entry file that the decode-based
// reader accepts — they say the same thing — and the layout contract does
// not: such a file is quarantined and recomputed.
func sameMeaning(t *testing.T, k Key, raw []byte) map[string][]byte {
	t.Helper()
	var e entry
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatal(err)
	}
	canon, _ := k.Canonical()
	sortedKey := sortedFields(t, canon)
	out := map[string][]byte{
		"hand-indented":        []byte("{\n  \"key\": " + string(canon) + ",\n  \"payload_sha256\": \"" + e.PayloadSHA + "\",\n  \"payload\": " + string(e.Payload) + "\n}\n"),
		"trailing newline":     append(bytes.Clone(raw), '\n'),
		"space after colon":    bytes.Replace(raw, []byte(`"payload":`), []byte(`"payload": `), 1),
		"fields reordered":     []byte(`{"payload_sha256":"` + e.PayloadSHA + `","key":` + string(canon) + `,"payload":` + string(e.Payload) + `}`),
		"key fields reordered": []byte(`{"key":` + string(sortedKey) + `,"payload_sha256":"` + e.PayloadSHA + `","payload":` + string(e.Payload) + `}`),
		"explicit default":     bytes.Replace(raw, []byte(`},"payload_sha256"`), []byte(`,"watchdog":0},"payload_sha256"`), 1),
	}
	hash, _ := k.Hash()
	for name, b := range out {
		if _, err := oracleVerifyEntry(hash, b); err != nil {
			t.Fatalf("%s: not a same-meaning rewrite, the decode-based reader rejects it: %v", name, err)
		}
	}
	return out
}

func TestReformattedEntryIsQuarantined(t *testing.T) {
	k := testKey("nw")
	payload := []byte(`{"cycles":1120,"ipc":0.96}`)
	seed := mustOpen(t, t.TempDir())
	if err := seed.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(entryPath(t, seed, k))
	if err != nil {
		t.Fatal(err)
	}
	for name, rewritten := range sameMeaning(t, k, good) {
		for _, via := range []string{"Get", "Verify"} {
			t.Run(name+"/"+via, func(t *testing.T) {
				s := mustOpen(t, t.TempDir())
				if err := s.Put(k, payload); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(entryPath(t, s, k), rewritten, 0o644); err != nil {
					t.Fatal(err)
				}
				if via == "Get" {
					if _, ok, err := s.Get(k); ok || err != nil {
						t.Fatalf("Get = ok=%v err=%v, want a miss", ok, err)
					}
				} else if n, err := s.Verify(); n != 0 || err == nil {
					t.Fatalf("Verify = %d, %v, want the entry reported", n, err)
				}
				if q := s.Stats().Quarantined; q != 1 {
					t.Fatalf("Quarantined = %d, want 1", q)
				}
				// Recomputed, it serves again.
				if err := s.Put(k, payload); err != nil {
					t.Fatal(err)
				}
				if got, ok, err := s.Get(k); !ok || err != nil || !bytes.Equal(got, payload) {
					t.Fatalf("after recompute: ok=%v err=%v", ok, err)
				}
			})
		}
	}
}

// TestChecksumCorrectGarbagePayload: a payload that matches its checksum
// but is not JSON never reaches a reply, whether or not the file around it
// still parses.
func TestChecksumCorrectGarbagePayload(t *testing.T) {
	k := testKey("nw")
	canon, err := k.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	for _, garbage := range []string{`cycles go brr`, `1}`, `1,"x":2`, `{"a":1`, `{"a":1}}`, ` `} {
		s := mustOpen(t, t.TempDir())
		if err := s.Put(k, []byte(garbage)); err == nil {
			t.Fatalf("Put accepted %q", garbage)
		}
		p := entryPath(t, s, k)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, appendEntry(nil, canon, []byte(garbage)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := s.Get(k); ok || err != nil {
			t.Fatalf("payload %q: Get = ok=%v err=%v, want a miss", garbage, ok, err)
		}
		if q := s.Stats().Quarantined; q != 1 {
			t.Fatalf("payload %q: Quarantined = %d, want 1", garbage, q)
		}
	}
}

// TestPutStoresPayloadVerbatim: JSON that json.Marshal would have written
// differently (insignificant whitespace, an unescaped '<') comes back as it
// went in. Re-encoding it on the way to disk, as Put once did, stored bytes
// the checksum — taken before the re-encoding — could never match.
func TestPutStoresPayloadVerbatim(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	k := testKey("nw")
	payload := []byte("{\"a\": 1,\n \"b\":\"<x> & y\"}")
	if err := s.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := s.Get(k); !ok || err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q ok=%v err=%v, want the payload as put", got, ok, err)
	}
	if n, err := s.Verify(); n != 1 || err != nil {
		t.Fatalf("Verify = %d, %v", n, err)
	}
}
