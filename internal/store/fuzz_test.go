package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

const fuzzSHA = "9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08"

// FuzzKeyCanonical fuzzes key canonicalization: for arbitrary field
// values, Canonical/Hash must never panic; when a key is accepted, its
// canonical form must be a fixed point (decode → re-canonicalize →
// identical bytes, identical hash), since cache addressing depends on
// equal keys producing equal addresses in every process. The canonical
// form is written by append; it must be, byte for byte, what reflecting
// through json.Marshal wrote when the addresses in every existing store
// were minted.
func FuzzKeyCanonical(f *testing.F) {
	f.Add(fuzzSHA, "nw", "regless", 512, 8, 1, uint64(1000), uint64(0), false, "", "", 0)
	f.Add(fuzzSHA, "bfs", "baseline", 256, 64, 15, uint64(60_000_000), uint64(20_000), true, "osu-tag@200; seed=3", "", 0)
	f.Add("", "", "", 0, 0, 0, uint64(0), uint64(0), false, "", "", 0)
	f.Add("abc", "../../etc", `a\b`, -5, -1, -2, uint64(1), uint64(1), true, "\x00", "", -1)
	f.Add(strings.ToUpper(fuzzSHA), "nw", "regless-nocomp", 1<<30, 1, 0, uint64(1), uint64(0), false, "seed=9", "", 0)
	f.Add(fuzzSHA, "nw", "regless", 512, 8, 1, uint64(1000), uint64(0), false, "", "preload,stalls", 1)
	f.Add(fuzzSHA, `b+tree <"é"&>`, "rfv", 0, 64, 4, uint64(1)<<63, ^uint64(0), true, "a\tb\x7f", "st/alls", 0)
	f.Add(fuzzSHA, "nw", "regless", 512, 8, 1, uint64(1000), uint64(0), false, "\u2028", "<&>\"", 0)

	f.Fuzz(func(t *testing.T, sha, bench, scheme string, capacity, warps, sms int, maxCycles, watchdog uint64, sanitize bool, faults, report string, model int) {
		k := Key{
			KernelSHA: sha,
			Bench:     bench,
			Scheme:    scheme,
			Capacity:  capacity,
			Warps:     warps,
			SMs:       sms,
			MaxCycles: maxCycles,
			Watchdog:  watchdog,
			Sanitize:  sanitize,
			Faults:    faults,
			Report:    report,
			Model:     model,
		}
		c1, err := k.Canonical()
		if err != nil {
			// Rejection must be consistent: no hash for an invalid key.
			if _, herr := k.Hash(); herr == nil {
				t.Fatalf("Validate rejected key but Hash minted an address: %+v", k)
			}
			return
		}
		h1, err := k.Hash()
		if err != nil {
			t.Fatalf("Canonical succeeded but Hash failed: %v", err)
		}
		if h1 != sha256Hex(c1) {
			t.Fatalf("Hash is not the digest of Canonical: %s", h1)
		}
		if want, err := json.Marshal(k); err != nil || !bytes.Equal(c1, want) {
			t.Fatalf("canonical form left encoding/json's:\n%s\n%s (%v)", c1, want, err)
		}

		// Canonicalization is a fixed point under decode/re-encode.
		var k2 Key
		if err := json.Unmarshal(c1, &k2); err != nil {
			t.Fatalf("canonical form does not decode: %v", err)
		}
		c2, err := k2.Canonical()
		if err != nil {
			t.Fatalf("re-canonicalizing a canonical key failed: %v", err)
		}
		if !bytes.Equal(c1, c2) {
			t.Fatalf("canonicalization not idempotent:\n%s\n%s", c1, c2)
		}
		h2, err := k2.Hash()
		if err != nil || h1 != h2 {
			t.Fatalf("hash unstable across canonicalization: %s vs %s (%v)", h1, h2, err)
		}
	})
}

// FuzzVerifyEntry holds the in-place verifier to the decode-based one it
// replaced (oracleVerifyEntry). Over a good entry damaged one way per
// input — a flipped byte, a truncation, inserted whitespace, reordered
// fields, a key region that is valid JSON but not canonical, a payload that
// matches its checksum and is not JSON — what the layout check accepts the
// oracle accepts, with the same payload; Get's verifier (which is handed
// the key) and Verify's (which recovers it from the file) agree; an entry
// written the old way, by json.Marshal, reads back; and every file, laid
// at its key's address, reads back through View and Get — the recycled
// buffer, the growth past its start, quarantine — exactly as verifyEntry
// judges its bytes.
func FuzzVerifyEntry(f *testing.F) {
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Add("nw", "", []byte(`{"cycles":1120,"ipc":0.96}`), uint8(0), uint16(0), byte(0))
	f.Add("bfs", "preload,stalls", []byte(`{"a":[1,2,{"b":null}],"c":"d"}`), uint8(1), uint16(200), byte(0x40))
	f.Add("nw", "", []byte(`{"cycles":1120}`), uint8(2), uint16(120), byte(1))
	f.Add("nw", "", []byte(`{"cycles":1120}`), uint8(3), uint16(7), byte(2))
	f.Add(`b+tree <"é"&>`, "stalls", []byte(`[1,2,3]`), uint8(4), uint16(0), byte(0))
	f.Add("nw", "", []byte(`{"cycles":1120}`), uint8(5), uint16(0), byte(0))
	f.Add("nw", "", []byte(`cycles go brr`), uint8(0), uint16(0), byte(0))
	f.Add("nw", "", []byte(`1,"x":2`), uint8(0), uint16(0), byte(0))
	f.Add("nw", "", []byte(`{"a": 1, "b":"<x>"}`), uint8(0), uint16(0), byte(0))
	f.Add("nw", "", []byte(`null`), uint8(0), uint16(0), byte(0))

	f.Fuzz(func(t *testing.T, bench, report string, payload []byte, kind uint8, pos uint16, b byte) {
		k := testKey(bench)
		k.Report = report
		canon, err := k.Canonical()
		if err != nil || len(payload) == 0 {
			return
		}
		hash := sha256Hex(canon)

		// check runs both verifiers, the store's read path and the oracle
		// over one file.
		check := func(what string, raw []byte) (accepted bool) {
			got, err := verifyEntry(canon, raw)
			if ferr := verifyFile(hash, raw); (ferr == nil) != (err == nil) {
				t.Fatalf("%s: handed the key: %v; recovering it from the file: %v\n%s", what, err, ferr, raw)
			}
			readBack(t, s, k, raw, got, err == nil)
			if err != nil {
				return false
			}
			want, oerr := oracleVerifyEntry(hash, raw)
			if oerr != nil {
				t.Fatalf("%s: accepted in place, rejected when decoded: %v\n%s", what, oerr, raw)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: payload in place %q, decoded %q", what, got, want)
			}
			if !bytes.Equal(raw, appendEntry(nil, canon, got)) {
				t.Fatalf("%s: accepted a file that is not the layout around its payload:\n%s", what, raw)
			}
			return true
		}

		// The file as Put lays it out, around whatever the payload is: a hit
		// exactly when the payload is one JSON value.
		good := appendEntry(nil, canon, payload)
		if want := validJSONValue(payload); check("as laid out", good) != want {
			t.Fatalf("payload %q: accepted = %v, want %v", payload, !want, want)
		}

		// The file as json.Marshal wrote it. It re-encoded the payload after
		// taking the checksum, so only a payload that comes through
		// unchanged — anything json.Marshal itself produced — was ever
		// readable, and each of those still is.
		if old, err := json.Marshal(entry{Key: k, PayloadSHA: sha256Hex(payload), Payload: payload}); err == nil {
			_, oerr := oracleVerifyEntry(hash, old)
			if check("as marshaled", old) != (oerr == nil) {
				t.Fatalf("an entry json.Marshal wrote reads back differently than it did (decoded: %v)\n%s", oerr, old)
			}
			if bytes.HasSuffix(old, append(bytes.Clone(payload), '}')) && oerr != nil {
				t.Fatalf("the oracle rejects an entry whose payload survived json.Marshal: %v", oerr)
			}
		}

		// One kind of damage.
		bad := bytes.Clone(good)
		at := int(pos) % len(bad)
		switch kind % 6 {
		case 0:
			bad[at] ^= b
		case 1:
			bad = bad[:at]
		case 2:
			bad = slices.Insert(bad, at, " \t\r\n"[b%4])
		case 3:
			sum := `"payload_sha256":"` + sha256Hex(payload) + `"`
			fields := [3]string{`"key":` + string(canon), sum, `"payload":` + string(payload)}
			perm := [6][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}[b%6]
			bad = []byte("{" + fields[perm[0]] + "," + fields[perm[1]] + "," + fields[perm[2]] + "}")
		case 4:
			bad = appendEntry(nil, sortedFields(t, canon), payload)
		case 5:
			bad = appendEntry(nil, canon, append(bytes.Clone(payload), " }]x"[b%4]))
		}
		check("damaged", bad)
	})
}

// readBack writes raw as k's entry file and reads it through View, then
// Get: a hit with want exactly when verifyEntry accepts raw, else a clean
// miss that quarantines the file.
func readBack(t *testing.T, s *Store, k Key, raw, want []byte, accepted bool) {
	t.Helper()
	path := entryPath(t, s, k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var viewed []byte
	ok, err := s.View(k, func(p []byte) { viewed = bytes.Clone(p) })
	if err != nil || ok != accepted || !bytes.Equal(viewed, want) {
		t.Fatalf("View = ok=%v err=%v %q; verifyEntry accepted=%v %q\n%s", ok, err, viewed, accepted, want, raw)
	}
	got, ok, err := s.Get(k)
	if err != nil || ok != accepted || !bytes.Equal(got, want) {
		t.Fatalf("Get after View = ok=%v err=%v %q; verifyEntry accepted=%v %q", ok, err, got, accepted, want)
	}
	if _, err := os.Stat(path); os.IsNotExist(err) == accepted {
		t.Fatalf("entry file present=%v after reading it, verifyEntry accepted=%v", !accepted, accepted)
	}
}

// validJSONValue is what a stored payload must be, spelled with
// encoding/json: one value, and no whitespace around it. isJSONValue is the
// store's one-pass spelling of it.
func validJSONValue(p []byte) bool {
	return len(bytes.TrimSpace(p)) == len(p) && json.Valid(p)
}

// servedPayload is a payload as the service stores it: lud under RegLess at
// the default 64 warps, 1 259 bytes.
func servedPayload(tb testing.TB) []byte {
	tb.Helper()
	p, err := os.ReadFile(filepath.Join("testdata", "payload_lud_regless.json"))
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// nested is n containers inside one another, opened by open and closed by
// close, around inner.
func nested(open, inner, close string, n int) []byte {
	return []byte(strings.Repeat(open, n) + inner + strings.Repeat(close, n))
}

// FuzzJSONValue holds the store's one-pass JSON check to encoding/json's:
// for every input, isJSONValue accepts exactly what validJSONValue does.
// The seeds are where the two could part: a served payload, the nesting
// limit on either side, every escape and every way to spoil one, the bytes
// a string may and may not hold, the edges of the number grammar, the
// literals' prefixes and suffixes, and each kind of whitespace, which may
// stand between tokens and never around the value.
func FuzzJSONValue(f *testing.F) {
	f.Add(servedPayload(f))
	f.Add(nested(`[{"a":`, "1", "}]", maxJSONDepth/2))
	f.Add(nested(`[{"a":`, "[]", "}]", maxJSONDepth/2))
	for _, n := range []int{maxJSONDepth, maxJSONDepth + 1} {
		f.Add(nested("[", "", "]", n))
		f.Add(nested("[", "1", "]", n))
		f.Add(nested(`{"":`, "{}", "}", n-1))
		f.Add(nested(`{"a":`, "1", "}", n))
	}
	for _, s := range []string{
		`"\"\\\/\b\f\n\r\t\u00e9\uABCD\uFfFf"`, `"\u12"`, `"\u12`, `"\u"`, `"\u12g4"`,
		`"\x"`, `"\'"`, `"\`, `"abc`, `"`, `""`, `"\u0000"`,
		"\"a\x01b\"", "\"\x1f\"", "\"\x00\"", "\"a\tb\"", "\"\x7f\"", "\"\xff\xfe\"", "\"\xc3\"",
		"\"\xed\xa0\x80\"", `"abcdefgh\"ijklmnop"`, `"abcdefgh\\ijklmnop"`, "\"abcdefghijklmno\x1f\"",
		`"abcdefghijklmnop"`, `"abcdefg"`, `{"abcdefghij":"klmnopqrstuvwxyz"}`,
		`-0`, `01`, `1.`, `1e+`, `.5`, `+1`, `-`, `-01`, `1.e5`, `0.5e+10`, `1E-5`, `-1.5E07`, `0e0`, `00`, `1e`,
		`[01]`, `[0,0.5,-0,0e1,10]`, `{"a":00}`, `[0x]`,
		`[1,]`, `[,1]`, `{"a":1,}`, `{"a"}`, `{"a":}`, `{1:2}`, `{"a" : 1 , "b" :[ ] }`, `[1 2]`, `{}}`, `[]]`, `[}`, `{]`,
		`t`, `tru`, `true`, `truex`, `trUe`, `f`, `fals`, `false`, `falsey`, `n`, `nul`, `null`, `nulll`, `nullx`,
		`[true,false,null]`, `[truefalse]`, `{"a":nul}`,
		" 1", "1 ", "\t1", "1\t", "\n{}", "{}\n", "\r[]", "[]\r", "\v1", "1\v", "\f1", "1\f",
		"\u00851", "1\u0085", "\u00a0null", "null\u00a0", "[ 1,\t2\n,\r3 ]", "[\v1]", "[1\u00a0]", "",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		if got, want := isJSONValue(p), validJSONValue(p); got != want {
			t.Fatalf("isJSONValue = %v, encoding/json says %v, for %q", got, want, p)
		}
	})
}
