package portal

import (
	"encoding/json"
	"strconv"

	"p4p/internal/topology"
)

// decodeViewWire decodes a distances response body into w. A body in
// the layout every portal in this tree serves — {"pids":[…],"matrix":
// [[…],…],"version":N}, no insignificant whitespace — is parsed in one
// pass into one flat backing array. Anything else (another key order,
// spaces, null, a literal outside the JSON number grammar or the
// float64 range, a ragged matrix) goes to encoding/json, which stays
// the arbiter of what is valid and the author of every error message.
//
// encoding/json spends over a millisecond on ISP-B's 52 KB view: one
// validating pass, then a reflective pass that regrows every row seven
// times. That was more than half of what a price update takes to reach
// a client, and the largest source of garbage on that path.
func decodeViewWire(body []byte, w *ViewWire) error {
	if parseCanonicalView(body, w) {
		return nil
	}
	*w = ViewWire{}
	return json.Unmarshal(body, w)
}

// wireCursor walks a body left to right.
type wireCursor struct {
	b []byte
	i int
}

// lit consumes s if the body continues with it.
func (c *wireCursor) lit(s string) bool {
	if len(c.b)-c.i < len(s) || string(c.b[c.i:c.i+len(s)]) != s {
		return false
	}
	c.i += len(s)
	return true
}

// char consumes ch if it is the next byte.
func (c *wireCursor) char(ch byte) bool {
	if c.i < len(c.b) && c.b[c.i] == ch {
		c.i++
		return true
	}
	return false
}

// digits consumes a run of decimal digits and reports whether there
// was one.
func (c *wireCursor) digits() bool {
	start := c.i
	for c.i < len(c.b) && c.b[c.i]-'0' <= 9 {
		c.i++
	}
	return c.i > start
}

// number consumes one JSON number literal (RFC 8259 §6; strconv alone
// would also take "+1", ".5", "01", "0x1p3" and "inf"). With integer
// set it stops before a fraction or exponent, which the caller then
// trips over.
func (c *wireCursor) number(integer bool) ([]byte, bool) {
	start := c.i
	c.char('-')
	if !c.char('0') && !c.digits() {
		return nil, false
	}
	if !integer {
		if c.char('.') && !c.digits() {
			return nil, false
		}
		if c.char('e') || c.char('E') {
			if !c.char('+') {
				c.char('-')
			}
			if !c.digits() {
				return nil, false
			}
		}
	}
	return c.b[start:c.i], true
}

func (c *wireCursor) integer() (int, bool) {
	tok, ok := c.number(true)
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(string(tok))
	return n, err == nil
}

// parseCanonicalView reports whether b is a canonical distances body,
// decoded into w; on false w may be partly filled.
func parseCanonicalView(b []byte, w *ViewWire) bool {
	c := wireCursor{b: b}
	if !c.lit(`{"pids":[`) {
		return false
	}
	for {
		pid, ok := c.integer()
		if !ok {
			return false
		}
		w.PIDs = append(w.PIDs, topology.PID(pid))
		if !c.char(',') {
			break
		}
	}
	if !c.lit(`],"matrix":[`) {
		return false
	}
	// An entry and its separator take two bytes, so a square matrix
	// over n PIDs cannot fit in fewer than n*n: a lying PID list buys
	// no allocation.
	n := len(w.PIDs)
	if n > len(b)/n {
		return false
	}
	flat := make([]float64, n*n)
	w.Matrix = make([][]float64, n)
	for i := range w.Matrix {
		if i > 0 && !c.char(',') || !c.char('[') {
			return false
		}
		row := flat[i*n : (i+1)*n : (i+1)*n]
		for j := range row {
			if j > 0 && !c.char(',') {
				return false
			}
			tok, ok := c.number(false)
			if !ok {
				return false
			}
			d, err := strconv.ParseFloat(string(tok), 64)
			if err != nil {
				return false
			}
			row[j] = d
		}
		if !c.char(']') {
			return false
		}
		w.Matrix[i] = row
	}
	if !c.lit(`],"version":`) {
		return false
	}
	var ok bool
	if w.Version, ok = c.integer(); !ok || !c.char('}') {
		return false
	}
	for _, ch := range b[c.i:] {
		if ch != ' ' && ch != '\n' && ch != '\r' && ch != '\t' {
			return false
		}
	}
	return true
}
