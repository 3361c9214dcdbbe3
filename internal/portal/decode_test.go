package portal

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"p4p/internal/core"
	"p4p/internal/topology"
)

// sameAsEncodingJSON holds decodeViewWire to its contract: whatever the
// body, it accepts what encoding/json accepts and produces the same
// value.
func sameAsEncodingJSON(t *testing.T, body []byte) {
	t.Helper()
	var want, got ViewWire
	wantErr := json.Unmarshal(body, &want)
	gotErr := decodeViewWire(body, &got)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%q: encoding/json says %v, decodeViewWire says %v", body, wantErr, gotErr)
	}
	if wantErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: decoded %+v, encoding/json decodes %+v", body, got, want)
	}
}

func TestDecodeViewWireMatchesEncodingJSON(t *testing.T) {
	canonical := []string{
		`{"pids":[0,1],"matrix":[[0,-1],[-1,0]],"version":3}`,
		`{"pids":[0,1,2],"matrix":[[0,1.5,-1],[1.5,0,2],[-1,2,0]],"version":7}` + "\n",
		`{"pids":[7],"matrix":[[0]],"version":-1}` + " \t\r\n",
		`{"pids":[-3,12],"matrix":[[-0,1e300],[2.5E-7,1e+2]],"version":0}`,
		`{"pids":[0,1],"matrix":[[0.1234567890123456789,5e-324],[1.7976931348623157e308,0]],"version":2}`,
	}
	for _, body := range canonical {
		var w ViewWire
		if !parseCanonicalView([]byte(body), &w) {
			t.Errorf("%q: not taken by the one-pass parser", body)
		}
		sameAsEncodingJSON(t, []byte(body))
	}
	// Bodies the one-pass parser must hand to encoding/json: valid JSON
	// in another layout, and invalid JSON that strconv would swallow.
	fallback := []string{
		``, `null`, `{}`, `[]`,
		` {"pids":[0],"matrix":[[0]],"version":1}`,
		`{"pids": [0],"matrix":[[0]],"version":1}`,
		`{"matrix":[[0]],"pids":[0],"version":1}`,
		`{"pids":[0],"matrix":[[0]]}`,
		`{"pids":[0],"matrix":[[0]],"version":1,"extra":true}`,
		`{"pids":[0],"matrix":[[0]],"version":1}x`,
		`{"pids":[0],"matrix":[[0]],"version":1}{}`,
		`{"pids":[],"matrix":[],"version":1}`,
		`{"pids":null,"matrix":null,"version":1}`,
		`{"pids":[0,1],"matrix":[[0,1]],"version":1}`,
		`{"pids":[0,1],"matrix":[[0,1],[1]],"version":1}`,
		`{"pids":[0,1],"matrix":[[0,1],[1,0,2]],"version":1}`,
		`{"pids":[0],"matrix":[[0],[1]],"version":1}`,
		`{"pids":[0],"matrix":[[null]],"version":1}`,
		`{"pids":[0],"matrix":[["1"]],"version":1}`,
		`{"pids":[0.0],"matrix":[[0]],"version":1}`,
		`{"pids":[1e0],"matrix":[[0]],"version":1}`,
		`{"pids":[0],"matrix":[[0]],"version":1.5}`,
		`{"pids":[99999999999999999999],"matrix":[[0]],"version":1}`,
		`{"pids":[0,1,2,3,4,5,6,7,8,9],"matrix":[[0]],"version":1}`,
	}
	for _, lit := range []string{"01", "+1", "1.", ".5", "1e", "1e+", "-", "--1", "0x1p3", "1_0", "inf", "Inf", "NaN", "1e999", "-1e999", "1.5.5", "1ee5"} {
		fallback = append(fallback, `{"pids":[0],"matrix":[[`+lit+`]],"version":1}`)
	}
	for _, body := range fallback {
		var w ViewWire
		if parseCanonicalView([]byte(body), &w) {
			t.Errorf("%q: taken by the one-pass parser", body)
		}
		sameAsEncodingJSON(t, []byte(body))
	}
}

// TestDecodeViewWireServedBody decodes what the portal actually serves,
// at ISP-B's size with full-precision distances.
func TestDecodeViewWireServedBody(t *testing.T) {
	body := servedBody(t, 52)
	var w ViewWire
	if !parseCanonicalView(body, &w) {
		t.Fatal("a served body is not taken by the one-pass parser")
	}
	sameAsEncodingJSON(t, body)
}

func FuzzDecodeViewWire(f *testing.F) {
	f.Add([]byte(`{"pids":[0,1],"matrix":[[0,-1],[-1,0]],"version":3}`))
	f.Add([]byte(`{"pids":[0,1],"matrix":[[0,1e300],[2,0]]}`))
	f.Add([]byte(`{"pids":[0,1],"matrix":[[0,-0.9999999],[5e14,0]],"version":2}` + "\n"))
	f.Add([]byte(`{"pids":[0],"matrix":[[01]],"version":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sameAsEncodingJSON(t, data)
	})
}

func servedBody(tb testing.TB, n int) []byte {
	rng := rand.New(rand.NewSource(1))
	v := &core.View{Version: 42}
	for i := 0; i < n; i++ {
		v.PIDs = append(v.PIDs, topology.PID(i))
		row := make([]float64, n)
		for j := range row {
			row[j] = rng.Float64() * 40
		}
		v.D = append(v.D, row)
	}
	body, err := EncodeView(v, "raw")
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

func BenchmarkDecodeViewWire(b *testing.B) {
	body := servedBody(b, 52)
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	for i := 0; i < b.N; i++ {
		var w ViewWire
		if err := decodeViewWire(body, &w); err != nil {
			b.Fatal(err)
		}
	}
}
