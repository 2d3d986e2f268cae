package jsonstr

import (
	"bytes"
	"encoding/json"
	"testing"
)

func check(t *testing.T, s string) {
	t.Helper()
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := Append([]byte("x"), s); !bytes.Equal(got[1:], want) || got[0] != 'x' {
		t.Fatalf("Append(%q) = %s, json.Marshal writes %s", s, got[1:], want)
	}
}

func TestAppendMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{
		"", "nw", "regless-nocomp", "osu-tag@200; seed=3", "preload,stalls",
		`q"uote`, `back\slash`, "<a&b>", "tab\t", "nul\x00", "del\x7f", "é", "日本",
		"  ", "bad\xff", "\xc3", "~ {}[]:,",
	} {
		check(t, s)
	}
	// Every single byte, alone and between plain neighbours.
	for c := 0; c < 256; c++ {
		check(t, string([]byte{byte(c)}))
		check(t, "a"+string([]byte{byte(c)})+"z")
	}
}

func FuzzAppend(f *testing.F) {
	f.Add("nw")
	f.Add(`rid <a&b> "q" \ end`)
	f.Add("\xe2\x80\xa8")
	f.Fuzz(func(t *testing.T, s string) { check(t, s) })
}

func TestPlainStringDoesNotAllocate(t *testing.T) {
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() { buf = Append(buf[:0], "regless-nocomp") }); n != 0 {
		t.Errorf("a plain string costs %.0f allocations", n)
	}
}
