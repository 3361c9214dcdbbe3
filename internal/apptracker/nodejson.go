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
// method. The element a /select body carries thousands of is matched
// byte for byte against the form json.Marshal writes for a Node —
// {"ID":n,"PID":n,"ASN":n}, those keys in that order, no whitespace,
// integers of at most 18 digits — with no reflection. Every other body
// (keys reordered, repeated, missing or case-folded, whitespace, null,
// fractions and exponents, strings, longer numbers, malformed input)
// goes whole to encoding/json's struct decode, so results are the
// stdlib's and so is every error's kind. Unlike the struct decode,
// which records a type error and goes on, a type error here ends the
// enclosing decode at its element.
func (n *Node) UnmarshalJSON(b []byte) error {
	if v, ok := decodeCanonical(b); ok {
		*n = v
		return nil
	}
	return json.Unmarshal(b, (*plain)(n))
}

// decodeCanonical matches b against json.Marshal's form of a Node. It
// names every field, so no prior value shows through; it reports false
// for anything else, with nothing written. The keys are constants so
// that each comparison compiles to a few loads.
func decodeCanonical(b []byte) (Node, bool) {
	const kID, kPID, kASN = `{"ID":`, `,"PID":`, `,"ASN":`
	if len(b) <= len(kID) || string(b[:len(kID)]) != kID {
		return Node{}, false
	}
	id, i, ok := canonicalInt(b, len(kID))
	if !ok || len(b)-i <= len(kPID) || string(b[i:i+len(kPID)]) != kPID {
		return Node{}, false
	}
	pid, i, ok := canonicalInt(b, i+len(kPID))
	if !ok || len(b)-i <= len(kASN) || string(b[i:i+len(kASN)]) != kASN {
		return Node{}, false
	}
	asn, i, ok := canonicalInt(b, i+len(kASN))
	if !ok || i != len(b)-1 || b[i] != '}' {
		return Node{}, false
	}
	return Node{ID: id, PID: topology.PID(pid), ASN: asn}, true
}

// canonicalInt parses the integer at b[i], which must exist: an optional
// minus, then 1 to maxCanonicalDigits digits with no leading zero. It
// returns the integer and the index past it.
func canonicalInt(b []byte, i int) (int, int, bool) {
	neg := b[i] == '-'
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
	return int(x), i, true
}
