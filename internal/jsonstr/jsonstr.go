// Package jsonstr writes JSON strings by append, byte for byte as
// encoding/json does. The store's key canonicalisation and the service's
// prebuilt run replies are both contracts on encoding/json's exact output
// (content addresses and wire bytes hang off it), and both sit on the warm
// read path, where reflecting through json.Marshal is most of the cost.
package jsonstr

import "encoding/json"

// Append appends s to dst as the JSON string json.Marshal(s) writes.
// Printable ASCII free of the characters encoding/json escapes (the quote,
// the backslash and the HTML trio) is copied between quotes; any other
// string goes through json.Marshal itself, so there is one definition of
// the escaping and this is only its common case.
func Append(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			b, _ := json.Marshal(s) // a string cannot fail to marshal
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
