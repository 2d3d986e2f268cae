package store

import (
	"encoding/binary"
	"math/bits"
)

// maxJSONDepth is encoding/json's nesting limit: a value may open this many
// arrays and objects inside one another, and not one more.
const maxJSONDepth = 10000

// isJSONValue reports whether p is one JSON value and nothing else: no
// whitespace around it either, which a decoder reading the entry would not
// count into the value (and so not into its checksum). It accepts exactly
// what encoding/json's Valid accepts of a p that bytes.TrimSpace leaves
// whole — the nesting limit included, and bytes in strings that are not
// UTF-8, which encoding/json passes too (FuzzJSONValue holds it to that
// predicate) — in one pass that allocates nothing: it runs on every read
// and every Put.
func isJSONValue(p []byte) bool {
	n := len(p)
	if n == 0 || isJSONSpace(p[0]) || isJSONSpace(p[n-1]) {
		return false
	}
	// The scan is four states, one label each: value (a value starts at
	// i), next (a value ended at i), closed (a container ended before i)
	// and member (an object member's key starts at i); whitespace may
	// come first in each. closer ends the innermost open container, '}'
	// or ']'; bit d of outer says whether the container at depth d, under
	// it, is an object.
	var (
		outer  [maxJSONDepth/64 + 1]uint64
		depth  int
		closer byte
		i      int
		c      byte
	)
value:
	if i == n {
		return false
	}
	if c = p[i]; isJSONSpace(c) {
		if i = skipJSONSpace(p, i); i == n {
			return false
		}
		c = p[i]
	}
	switch {
	case c == '"':
		i = skipJSONString(p, i+1)
	case c == '{' || c == '[':
		if depth == maxJSONDepth {
			return false
		}
		if closer == '}' {
			outer[depth/64] |= 1 << (depth % 64)
		} else {
			outer[depth/64] &^= 1 << (depth % 64)
		}
		depth++
		closer = c + 2 // '}' and ']' follow their openers by two
		if i = skipJSONSpace(p, i+1); i < n && p[i] == closer {
			i++
			goto closed
		}
		if closer == '}' {
			goto member
		}
		goto value
	case c == 't':
		i = skipJSONLiteral(p, i, "true")
	case c == 'f':
		i = skipJSONLiteral(p, i, "false")
	case c == 'n':
		i = skipJSONLiteral(p, i, "null")
	default:
		i = skipJSONNumber(p, i)
	}
	if i < 0 {
		return false
	}
next:
	if depth == 0 {
		return i == n
	}
	if i == n {
		return false
	}
	if c = p[i]; isJSONSpace(c) {
		if i = skipJSONSpace(p, i); i == n {
			return false
		}
		c = p[i]
	}
	if c == ',' {
		i++
		if closer == '}' {
			goto member
		}
		goto value
	}
	if c != closer {
		return false
	}
	i++
closed:
	depth--
	closer = ']'
	if outer[depth/64]&(1<<(depth%64)) != 0 {
		closer = '}'
	}
	goto next
member:
	if i = skipJSONSpace(p, i); i == n || p[i] != '"' {
		return false
	}
	if i = skipJSONString(p, i+1); i < 0 {
		return false
	}
	if i = skipJSONSpace(p, i); i == n || p[i] != ':' {
		return false
	}
	i++
	goto value
}

// isJSONSpace reports whether c is whitespace between JSON tokens.
func isJSONSpace(c byte) bool {
	return c <= ' ' && uint64(1)<<c&(1<<' '|1<<'\t'|1<<'\n'|1<<'\r') != 0
}

// skipJSONSpace returns the index of the first byte at or after i that is
// not whitespace, len(p) if there is none.
func skipJSONSpace(p []byte, i int) int {
	for i < len(p) && isJSONSpace(p[i]) {
		i++
	}
	return i
}

// The bytes of a word, each set to 0x01 and to 0x80.
const (
	lows  = 0x0101010101010101
	highs = 0x8080808080808080
)

// stringStop marks, in the high bit of its byte, each byte of the word w
// (read little-endian) that stops a run of plain string bytes: a quote, a
// backslash or a control byte. The lowest marked byte is exact; a byte
// above a marked one may be marked falsely.
func stringStop(w uint64) uint64 {
	q, b := w^('"'*lows), w^('\\'*lows)
	return ((q-lows)&^q | (b-lows)&^b | (w-0x20*lows)&^w) & highs
}

// skipJSONString reads a string's contents from i, just after its opening
// quote, and returns the index after its closing quote, -1 if it does not
// close or holds a control byte or a bad escape. It steps over plain bytes
// eight at a time.
func skipJSONString(p []byte, i int) int {
	for {
		for i+8 <= len(p) {
			if m := stringStop(binary.LittleEndian.Uint64(p[i:])); m != 0 {
				i += bits.TrailingZeros64(m) >> 3
				goto stop
			}
			i += 8
		}
		for i < len(p) && p[i] >= 0x20 && p[i] != '"' && p[i] != '\\' {
			i++
		}
		if i == len(p) {
			return -1
		}
	stop:
		switch c := p[i]; {
		case c == '"':
			return i + 1
		case c < 0x20:
			return -1
		}
		// A backslash, and the escape it starts.
		if i+1 == len(p) {
			return -1
		}
		switch p[i+1] {
		case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			i += 2
		case 'u':
			if i+6 > len(p) {
				return -1
			}
			for _, h := range p[i+2 : i+6] {
				if !isHexDigit(h) {
					return -1
				}
			}
			i += 6
		default:
			return -1
		}
	}
}

func isHexDigit(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// skipJSONLiteral returns the index after lit if p holds it at i, else -1.
func skipJSONLiteral(p []byte, i int, lit string) int {
	if len(p)-i < len(lit) || string(p[i:i+len(lit)]) != lit {
		return -1
	}
	return i + len(lit)
}

// skipJSONNumber returns the index after the number at i, -1 if there is
// none: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func skipJSONNumber(p []byte, i int) int {
	if i < len(p) && p[i] == '-' {
		i++
	}
	switch {
	case i == len(p):
		return -1
	case p[i] == '0':
		i++
	case '1' <= p[i] && p[i] <= '9':
		i = skipDigits(p, i+1)
	default:
		return -1
	}
	if i < len(p) && p[i] == '.' {
		if i = skipDigits(p, i+1); p[i-1] == '.' {
			return -1
		}
	}
	if i < len(p) && (p[i] == 'e' || p[i] == 'E') {
		i++
		if i < len(p) && (p[i] == '+' || p[i] == '-') {
			i++
		}
		start := i
		if i = skipDigits(p, i); i == start {
			return -1
		}
	}
	return i
}

// skipDigits returns the index of the first byte at or after i that is not
// a decimal digit.
func skipDigits(p []byte, i int) int {
	for i < len(p) && '0' <= p[i] && p[i] <= '9' {
		i++
	}
	return i
}
