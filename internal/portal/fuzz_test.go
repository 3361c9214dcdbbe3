package portal

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"p4p/internal/core"
	"p4p/internal/topology"
)

// FuzzFromWire feeds arbitrary JSON through the wire decoder and
// checks the decode invariants the selector depends on: an accepted
// view is square over its PID list, every distance is either finite in
// [0, MaxDistance] or exactly +Inf (never NaN, never negative), and a
// decoded view survives an encode/decode round trip unchanged.
func FuzzFromWire(f *testing.F) {
	f.Add([]byte(`{"pids":[0,1],"matrix":[[0,-1],[-1,0]],"version":3}`))
	f.Add([]byte(`{"pids":[0,1,2],"matrix":[[0,1.5,-1],[1.5,0,2],[-1,2,0]],"version":7}`))
	f.Add([]byte(`{"pids":[0],"matrix":[[0]],"version":1}`))
	f.Add([]byte(`{"pids":[0,1],"matrix":[[0,1e300],[2,0]]}`))
	f.Add([]byte(`{"pids":[0,1],"matrix":[[0,-0.9999999],[5e14,0]],"version":2}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var w ViewWire
		if err := json.Unmarshal(data, &w); err != nil {
			return
		}
		v, err := FromWire(&w)
		if err != nil {
			return
		}
		checkViewInvariants(t, v)
		rt, err := FromWire(ToWire(v))
		if err != nil {
			t.Fatalf("round trip rejected a decoded view: %v", err)
		}
		checkViewInvariants(t, rt)
		for i := range v.D {
			for j := range v.D[i] {
				a, b := v.D[i][j], rt.D[i][j]
				if math.IsInf(a, 1) != math.IsInf(b, 1) || (!math.IsInf(a, 1) && a != b) {
					t.Fatalf("round trip drifted at (%d,%d): %v -> %v", i, j, a, b)
				}
			}
		}
	})
}

// FuzzBinaryView reads the fuzz input twice. As a body: the binary
// decoder never panics, accepts only a body whose length is exactly what
// its PID count implies (so what it allocates is bounded by what it was
// sent), and an accepted body re-encodes to itself once every negative
// distance is written as the sentinel. As a recipe for a view (see
// fuzzedView): the binary trip and the JSON trip — EncodeView,
// encoding/json, FromWire — end in the same view bit for bit, or both
// refuse it.
func FuzzBinaryView(f *testing.F) {
	for _, v := range []*core.View{
		{Version: 3, PIDs: []topology.PID{0, 1}, D: [][]float64{{0, math.Inf(1)}, {2.5, 0}}},
		{Version: 7, PIDs: []topology.PID{9, -4, 5}, D: [][]float64{{0, 1.5, -2}, {1.5, 0, MaxDistance}, {5e-324, 2, 0}}},
		{Version: 1},
	} {
		body, err := EncodeView(v, FormBinary)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"pids":[0],"matrix":[[0]],"version":1}`))
	f.Add([]byte{3, 7, 7, 2, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0xff, 0xf8, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if v, err := decodeBinaryView(data); err == nil {
			checkViewInvariants(t, v)
			n := len(v.PIDs)
			if len(data) != binaryHeaderLen+8*n*(n+1) {
				t.Fatalf("accepted %d bytes for %d PIDs", len(data), n)
			}
			canonical := append([]byte(nil), data...)
			for off := binaryHeaderLen + 8*n; off < len(data); off += 8 {
				if math.Float64frombits(le.Uint64(data[off:])) < 0 {
					le.PutUint64(canonical[off:], math.Float64bits(Unreachable))
				}
			}
			if again, err := encodeBinaryView(v); err != nil || !bytes.Equal(again, canonical) {
				t.Fatalf("accepted body does not re-encode to itself: %v\n%x\n%x", err, again, canonical)
			}
		}
		v := fuzzedView(data)
		viaJSON, errJSON := viewViaJSON(v)
		viaBinary, errBinary := viewViaBinary(v)
		if (errJSON == nil) != (errBinary == nil) {
			t.Fatalf("view %+v: JSON trip says %v, binary trip says %v", v, errJSON, errBinary)
		}
		if errJSON == nil {
			checkViewInvariants(t, viaBinary)
			sameBits(t, viaBinary, viaJSON)
		}
	})
}

// fuzzedView builds a small view from fuzz input: the first byte picks
// the PID count, then one byte per PID (sparse, unsorted, sometimes
// repeated) and one per distance, which picks from the values the wire
// rules single out or takes the next eight bytes as a bit pattern.
func fuzzedView(data []byte) *core.View {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	n := int(next() % 7)
	v := &core.View{Version: int(int8(next())), PIDs: make([]topology.PID, n), D: make([][]float64, n)}
	for i := range v.PIDs {
		v.PIDs[i] = topology.PID(int8(next())) * 37
	}
	special := []float64{0, 1, 2.5, math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), Unreachable, -0.5,
		MaxDistance, math.Nextafter(MaxDistance, math.Inf(1)), 5e-324, 1.0 / 3}
	for i := range v.D {
		v.D[i] = make([]float64, n)
		for j := range v.D[i] {
			if k := int(next()); k%16 < len(special) {
				v.D[i][j] = special[k%16]
			} else {
				var bits [8]byte
				for b := range bits {
					bits[b] = next()
				}
				v.D[i][j] = math.Float64frombits(le.Uint64(bits[:]))
			}
		}
	}
	return v
}

func checkViewInvariants(t *testing.T, v *core.View) {
	t.Helper()
	if len(v.D) != len(v.PIDs) {
		t.Fatalf("accepted non-square view: %d rows for %d PIDs", len(v.D), len(v.PIDs))
	}
	for i, row := range v.D {
		if len(row) != len(v.PIDs) {
			t.Fatalf("accepted ragged row %d: %d columns for %d PIDs", i, len(row), len(v.PIDs))
		}
		for j, d := range row {
			switch {
			case math.IsNaN(d):
				t.Fatalf("NaN leaked through decode at (%d,%d)", i, j)
			case math.IsInf(d, 1):
				// unreachable; fine
			case d < 0:
				t.Fatalf("negative finite distance %v at (%d,%d)", d, i, j)
			case d > MaxDistance:
				t.Fatalf("out-of-range distance %v at (%d,%d)", d, i, j)
			}
		}
	}
}
