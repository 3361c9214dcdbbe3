package portal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"p4p/internal/core"
	"p4p/internal/topology"
)

// BinaryViewType is the media type of the binary rendering of the raw
// view. A client asks for it with Accept; JSON stays the default and the
// public interop form. All integers and floats are little-endian:
//
//	"P4P" 0x01 | int64 version | uint32 n | n × int64 PID | n·n × float64, row-major
//
// Distances follow ToWire's rules: ±Inf travels as Unreachable, NaN
// fails the encode.
const BinaryViewType = "application/x-p4p-view"

// FormBinary names that rendering wherever a form is a key: EncodeView,
// ViewSource.Entry, the ETag suffix, EntryCache's encode span.
const FormBinary = "bin"

// Forms lists every form a ViewSource renders.
var Forms = [...]string{"raw", FormBinary}

// binaryMagic is three magic bytes and the format byte; no JSON text
// starts with it, so a body names its own encoding.
const binaryMagic = "P4P\x01"

const binaryHeaderLen = len(binaryMagic) + 8 + 4

var le = binary.LittleEndian

// encodeBinaryView renders v in the BinaryViewType layout.
func encodeBinaryView(v *core.View) ([]byte, error) {
	n := len(v.PIDs)
	if len(v.D) != n || slices.ContainsFunc(v.D, func(row []float64) bool { return len(row) != n }) {
		return nil, fmt.Errorf("portal: view is not square over its %d PIDs", n)
	}
	b := make([]byte, 0, binaryHeaderLen+8*n*(n+1))
	b = append(b, binaryMagic...)
	b = le.AppendUint64(b, uint64(v.Version))
	b = le.AppendUint32(b, uint32(n))
	for _, pid := range v.PIDs {
		b = le.AppendUint64(b, uint64(pid))
	}
	for i, row := range v.D {
		for j, d := range row {
			if math.IsNaN(d) {
				return nil, fmt.Errorf("portal: NaN distance at (%d,%d)", i, j)
			}
			if math.IsInf(d, 0) {
				d = Unreachable
			}
			b = le.AppendUint64(b, math.Float64bits(d))
		}
	}
	return b, nil
}

// decodeBinaryView is FromWire for a BinaryViewType body, under the same
// hostile-payload rules. The body's own length bounds n before anything
// is sized by it, and must be exactly what n implies.
func decodeBinaryView(b []byte) (*core.View, error) {
	if len(b) < binaryHeaderLen || string(b[:len(binaryMagic)]) != binaryMagic {
		return nil, errors.New("portal: binary view: bad magic or format byte")
	}
	n := int(le.Uint32(b[12:]))
	if n > len(b)/8 || len(b) != binaryHeaderLen+8*n*(n+1) {
		return nil, fmt.Errorf("portal: binary view: %d bytes do not hold %d PIDs", len(b), n)
	}
	pids := make([]topology.PID, n)
	for i := range pids {
		pids[i] = topology.PID(le.Uint64(b[binaryHeaderLen+8*i:]))
	}
	flat := make([]float64, n*n)
	for k := range flat {
		flat[k] = math.Float64frombits(le.Uint64(b[binaryHeaderLen+8*(n+k):]))
	}
	return receivedView(pids, int(le.Uint64(b[4:])), flat)
}

// acceptsBinary reports whether an Accept header lists BinaryViewType
// without refusing it (q=0). It scans in place, as ETagMatches does. The
// portal does not rank q-values: a client that lists the binary type
// gets it, and "*/*" or no Accept at all means JSON.
func acceptsBinary(accept []string) bool {
	for _, header := range accept {
		for header != "" {
			var part string
			part, header, _ = strings.Cut(header, ",")
			typ, params, _ := strings.Cut(part, ";")
			if !strings.EqualFold(strings.TrimSpace(typ), BinaryViewType) {
				continue
			}
			for params != "" {
				var p string
				p, params, _ = strings.Cut(params, ";")
				if q, ok := strings.CutPrefix(strings.TrimSpace(p), "q="); ok && strings.Trim(q, "0.") == "" {
					return false
				}
			}
			return true
		}
	}
	return false
}
