package apptracker

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"p4p/internal/topology"
)

// selectBody is the /select request shape; plainSelectBody is the same
// shape decoded by encoding/json alone.
type selectBody struct {
	Self       Node   `json:"self"`
	Candidates []Node `json:"candidates"`
	M          int    `json:"m"`
}

type plainSelectBody struct {
	Self       plain   `json:"self"`
	Candidates []plain `json:"candidates"`
	M          int     `json:"m"`
}

// priorNodes is the non-zero content decodes start from: one element in
// length and three more in capacity, which a decode into the slice
// reuses without zeroing.
var priorNodes = [4]Node{{ID: 1, PID: 2, ASN: 3}, {ID: 4, PID: 5, ASN: 6}, {ID: -7, PID: 8, ASN: 9}, {ID: 10, PID: -11, ASN: 12}}

func priorSlice() []Node {
	s := priorNodes
	return s[:1]
}

func priorPlainSlice() []plain {
	var s [4]plain
	for i, n := range priorNodes {
		s[i] = plain(n)
	}
	return s[:1]
}

func nodesOf(ps []plain) []Node {
	if ps == nil {
		return nil
	}
	out := make([]Node, len(ps))
	for i, p := range ps {
		out[i] = Node(p)
	}
	return out
}

// checkSameDecode holds one decode to encoding/json's plain decode of
// the same bytes: the same nil or non-nil error, a type error still an
// *json.UnmarshalTypeError, and on success the same values.
func checkSameDecode(t *testing.T, what string, data []byte, errGot, errWant error, got, want any) {
	t.Helper()
	if (errGot == nil) != (errWant == nil) {
		t.Fatalf("%s of %q: error %v, plain decode %v", what, data, errGot, errWant)
	}
	var ute *json.UnmarshalTypeError
	if errors.As(errWant, &ute) && !errors.As(errGot, &ute) {
		t.Fatalf("%s of %q: error %T %v, plain decode a type error %v", what, data, errGot, errGot, errWant)
	}
	if errGot == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s of %q: decoded %+v, plain decode %+v", what, data, got, want)
	}
}

func checkNodeJSON(t *testing.T, data []byte) {
	// A slice of elements.
	gotS, wantS := priorSlice(), priorPlainSlice()
	errG, errW := json.Unmarshal(data, &gotS), json.Unmarshal(data, &wantS)
	checkSameDecode(t, "[]Node", data, errG, errW, gotS, nodesOf(wantS))

	// A lone element, through encoding/json and by a direct call, which
	// hands the fast path bytes encoding/json has not validated.
	for _, direct := range []bool{false, true} {
		got, want := priorNodes[2], plain(priorNodes[2])
		if direct {
			errG = got.UnmarshalJSON(data)
		} else {
			errG = json.Unmarshal(data, &got)
		}
		errW = json.Unmarshal(data, &want)
		checkSameDecode(t, "Node", data, errG, errW, got, Node(want))
	}

	// The request it arrives in.
	gotB := selectBody{Self: priorNodes[3], Candidates: priorSlice(), M: 5}
	wantB := plainSelectBody{Self: plain(priorNodes[3]), Candidates: priorPlainSlice(), M: 5}
	errG, errW = json.Unmarshal(data, &gotB), json.Unmarshal(data, &wantB)
	checkSameDecode(t, "select request", data, errG, errW, gotB,
		selectBody{Self: Node(wantB.Self), Candidates: nodesOf(wantB.Candidates), M: wantB.M})
}

// nodeJSONSeeds are elements in and out of the canonical shape, which
// is json.Marshal's form of a Node. The fuzz corpus holds each alone, in
// an array and in a request. The first nine are the matcher's edges:
// each of them fails under one of its mutants (no leading-zero check, no
// 18-digit cap, bytes after the closing brace accepted, PID and ASN
// written to each other's fields) or must fall back to the stdlib.
var nodeJSONSeeds = []string{
	`{"ID":1,"PID":2,"ASN":3}`,
	`{"ID":1,"PID":2,"ASN":3} `,
	`{"ID":-0,"PID":-0,"ASN":0}`,
	`{"ID":01,"PID":2,"ASN":3}`,
	`{"ID":-999999999999999999,"PID":2,"ASN":999999999999999999}`,
	`{"ID":9999999999999999999,"PID":2,"ASN":3}`,
	`{"ID":1,"PID":2}`,
	`{"ID":1,"ASN":3,"PID":2}`,
	`{"ID":1,"PID":2,"ASN":3}}`,
	`{"ASN":11537,"ID":-42}`,
	`{"PID":0}`,
	`{}`,
	` { } `,
	"\t{ \"ID\" :\r1 ,\n\"PID\":\n2 , \"ASN\" : 3 }\n",
	`{"ID":1,"ID":2,"PID":3,"ID":4}`,
	`{"id":1,"pid":2,"asn":3}`,
	`{"Id":1,"pId":2,"aSn":3}`,
	`{"\u0049D":5}`,
	`{"AſN":4}`,
	`{"ID":1,"extra":[1,{"a":null}],"PID":2}`,
	`null`,
	`{"ID":null,"PID":3}`,
	`{"ID":1.0}`,
	`{"ID":1e3}`,
	`{"ID":-0}`,
	`{"ID":123456789012345678}`,
	`{"ID":-123456789012345678}`,
	`{"ID":1234567890123456789}`,
	`{"ID":-9223372036854775808}`,
	`{"ID":12345678901234567890}`,
	`{"ID":"7"}`,
	`{"ID":01}`,
	`{"ID":1,}`,
	`{"ID":1}}`,
	`{"ID" 1}`,
	`{"ID":-}`,
	`[1]`,
	`true`,
	`"x"`,
}

func FuzzNodeJSONMatchesStdlib(f *testing.F) {
	for _, s := range nodeJSONSeeds {
		f.Add([]byte(s))
		f.Add([]byte(`[` + s + `,{"ID":9}]`))
		f.Add([]byte(`{"self":` + s + `,"candidates":[{"ID":9},` + s + `],"m":20}`))
	}
	f.Fuzz(checkNodeJSON)
}

// TestNodeCanonicalDecodeAllocs pins the decoder's allocation contract:
// a canonical element decodes without allocating, so the fallback was
// not taken.
func TestNodeCanonicalDecodeAllocs(t *testing.T) {
	elem := []byte(`{"ID":123,"PID":4,"ASN":11537}`)
	var n Node
	allocs := testing.AllocsPerRun(100, func() {
		if err := n.UnmarshalJSON(elem); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 || n != (Node{ID: 123, PID: 4, ASN: 11537}) {
		t.Fatalf("decoded %+v in %.1f allocs/op, want {123 4 11537} in 0", n, allocs)
	}
}

// selectFedBody is the select-fed workload's request: 200 candidates
// over both ASes of AbileneVirtualISPs, self among them, m = 20.
func selectFedBody(tb testing.TB) []byte {
	g := topology.AbileneVirtualISPs()
	pids := g.AggregationPIDs()
	r := rand.New(rand.NewSource(1))
	cands := make([]Node, 200)
	for i := range cands {
		pid := pids[r.Intn(len(pids))]
		cands[i] = Node{ID: i, PID: pid, ASN: g.Node(pid).ASN}
	}
	body, err := json.Marshal(selectBody{Self: cands[r.Intn(len(cands))], Candidates: cands, M: 20})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

var (
	selectBodySink      selectBody
	plainSelectBodySink plainSelectBody
)

// BenchmarkSelectRequestDecode decodes one select-fed request body as
// the /select route does, into a fresh request through a json.Decoder:
// "node" is the decode the route runs, "plain" the reflective struct
// decode that Node's canonical path replaces.
func BenchmarkSelectRequestDecode(b *testing.B) {
	body := selectFedBody(b)
	b.Run("node", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req selectBody
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
			selectBodySink = req
		}
	})
	b.Run("plain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req plainSelectBody
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
			plainSelectBodySink = req
		}
	})
}
