package apptracker

import (
	"encoding/json"

	"p4p/internal/topology"
)

// plain is Node without its UnmarshalJSON: encoding/json's reflective
// struct decode, which Node.UnmarshalJSON falls back to and is tested
// against.
type plain Node

// maxCanonicalDigits bounds the integers the canonical decode parses
// itself: 18 decimal digits cannot overflow an int64.
const maxCanonicalDigits = 18

// UnmarshalJSON decodes n as encoding/json decodes a Node without this
// method. The element a /select body carries thousands of —
// {"ID":n,"PID":n,"ASN":n} with exactly those keys, in any order and
// any subset, a repeated key's last value winning, integer values of
// at most 18 digits, JSON whitespace anywhere — is parsed in one pass
// with no reflection. Anything else (case-folded or escaped keys,
// unknown fields, null, fractions and exponents, strings, longer
// numbers, malformed input) goes to encoding/json's struct decode, so
// results are the stdlib's and so is every error's kind. Unlike the
// struct decode, which records a type error and goes on, a type error
// here ends the enclosing decode at its element.
//
//p4p:hotpath one call per /select candidate; the canonical element decodes without allocating
func (n *Node) UnmarshalJSON(b []byte) error {
	if v, ok := decodeCanonical(b, *n); ok {
		*n = v
		return nil
	}
	return n.unmarshalPlain(b)
}

// unmarshalPlain is the fallback: encoding/json's reflective struct
// decode of b into n's fields.
//
//p4p:coldpath non-canonical and malformed elements only; reflection and a decodeState are its cost
func (n *Node) unmarshalPlain(b []byte) error {
	return json.Unmarshal(b, (*plain)(n))
}

// decodeCanonical parses b as a canonical Node object over the prior
// value v, which keeps every field b does not name, as the struct
// decode does. It reports false, with v's fields possibly half set, for
// anything outside the canonical shape.
func decodeCanonical(b []byte, v Node) (Node, bool) {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return v, false
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == '}' {
		return v, skipSpace(b, i+1) == len(b)
	}
	for {
		var x int
		var ok bool
		switch {
		case hasKey(b, i, `"ID"`):
			x, i, ok = canonicalValue(b, i+len(`"ID"`))
			v.ID = x
		case hasKey(b, i, `"PID"`):
			x, i, ok = canonicalValue(b, i+len(`"PID"`))
			v.PID = topology.PID(x)
		case hasKey(b, i, `"ASN"`):
			x, i, ok = canonicalValue(b, i+len(`"ASN"`))
			v.ASN = x
		}
		if !ok || i == len(b) {
			return v, false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			return v, skipSpace(b, i+1) == len(b)
		default:
			return v, false
		}
	}
}

// hasKey reports whether the quoted key k starts at b[i].
func hasKey(b []byte, i int, k string) bool {
	return len(b)-i >= len(k) && string(b[i:i+len(k)]) == k
}

// canonicalValue parses `: integer` after a key: the colon, then a JSON
// integer with no fraction or exponent and at most maxCanonicalDigits
// digits, whitespace around both. It returns the integer and the index
// of the next non-space byte.
func canonicalValue(b []byte, i int) (int, int, bool) {
	if i = skipSpace(b, i); i == len(b) || b[i] != ':' {
		return 0, i, false
	}
	i = skipSpace(b, i+1)
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var x int64
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		x = x*10 + int64(b[i]-'0')
	}
	digits := i - start
	if digits == 0 || digits > maxCanonicalDigits || (b[start] == '0' && digits > 1) {
		return 0, i, false
	}
	if neg {
		x = -x
	}
	if int64(int(x)) != x { // int is 32 bits on some platforms
		return 0, i, false
	}
	return int(x), skipSpace(b, i), true
}

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}
