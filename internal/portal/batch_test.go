package portal

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"p4p/internal/itracker"
)

func TestBatchEndpointGET(t *testing.T) {
	srv, tr := newTestPortal(t, itracker.Config{Name: "t", ASN: 1})
	full, err := tr.Distances("")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/p4p/v1/distances/batch?pairs=0-1,1-2,2-0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var w BatchResponseWire
	if err := decodeBody(resp, &w); err != nil {
		t.Fatal(err)
	}
	if w.Version != full.Version {
		t.Fatalf("batch version %d, view version %d", w.Version, full.Version)
	}
	want := []float64{full.Distance(0, 1), full.Distance(1, 2), full.Distance(2, 0)}
	if len(w.Distances) != len(want) {
		t.Fatalf("got %d distances, want %d", len(w.Distances), len(want))
	}
	for i, d := range w.Distances {
		if d != want[i] {
			t.Fatalf("pair %d: batch %v, full view %v", i, d, want[i])
		}
	}
}

func TestBatchEndpointClientRoundTrip(t *testing.T) {
	srv, tr := newTestPortal(t, itracker.Config{Name: "t", ASN: 1, TrustedTokens: []string{"tok"}})
	c := NewClient(srv.URL, "tok")
	pairs := []PIDPair{{Src: 0, Dst: 1}, {Src: 3, Dst: 7}, {Src: 5, Dst: 5}}
	res, err := postBatch(c, pairs)
	if err != nil {
		t.Fatal(err)
	}
	full, err := tr.Distances("tok")
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != full.Version {
		t.Fatalf("batch version %d, view version %d", res.Version, full.Version)
	}
	for i, pr := range pairs {
		if got, want := res.Distances[i], full.Distance(pr.Src, pr.Dst); got != want {
			t.Fatalf("pair %v: batch %v, full view %v", pr, got, want)
		}
	}

	denied := NewClient(srv.URL, "nope")
	if _, err := postBatch(denied, pairs); err == nil {
		t.Fatal("expected denial for untrusted token")
	}
}

func TestBatchEndpointBadRequests(t *testing.T) {
	srv, _ := newTestPortal(t, itracker.Config{Name: "t", ASN: 1})
	cases := []struct {
		name   string
		method string
		url    string
		body   string
	}{
		{"missing pairs", http.MethodGet, "/p4p/v1/distances/batch", ""},
		{"malformed pair", http.MethodGet, "/p4p/v1/distances/batch?pairs=0_1", ""},
		{"non-numeric pair", http.MethodGet, "/p4p/v1/distances/batch?pairs=a-b", ""},
		{"unknown PID", http.MethodGet, "/p4p/v1/distances/batch?pairs=0-9999", ""},
		{"empty POST pairs", http.MethodPost, "/p4p/v1/distances/batch", `{"pairs":[]}`},
		{"bad JSON body", http.MethodPost, "/p4p/v1/distances/batch", `{"pairs":`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body *strings.Reader
			if tc.body != "" {
				body = strings.NewReader(tc.body)
			} else {
				body = strings.NewReader("")
			}
			req, err := http.NewRequest(tc.method, srv.URL+tc.url, body)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
		})
	}
}

// TestBatchBodyCap: a POST body of maxBatchBody bytes is read whole; one
// byte more is refused with 413 rather than cut to a prefix that may
// still decode.
func TestBatchBodyCap(t *testing.T) {
	srv, _ := newTestPortal(t, itracker.Config{Name: "t", ASN: 1})
	const pair = `{"src":0,"dst":1}`
	// padded is one valid pair followed by whitespace; list is a pairs
	// list running to the end of the body.
	padded := func(size int) string {
		body := `{"pairs":[` + pair + `]}`
		return body + strings.Repeat(" ", size-len(body))
	}
	list := func(size int) string {
		head, tail := `{"pairs":[`+pair, `]}`
		n := (size - len(head) - len(tail)) / (len(pair) + 1)
		body := head + strings.Repeat(","+pair, n)
		return body + strings.Repeat(" ", size-len(body)-len(tail)) + tail
	}
	for _, tc := range []struct {
		name string
		body string
		want int
	}{
		{"padded at the cap", padded(maxBatchBody), http.StatusOK},
		{"padded over the cap", padded(maxBatchBody + 1), http.StatusRequestEntityTooLarge},
		{"pairs list over the cap", list(maxBatchBody + 1), http.StatusRequestEntityTooLarge},
	} {
		resp, err := http.Post(srv.URL+"/p4p/v1/distances/batch", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e errorWire
		decodeBody(resp, &e)
		if resp.StatusCode != tc.want || (tc.want != http.StatusOK && e.Error == "") {
			t.Errorf("%s: status %d, error %q; want %d", tc.name, resp.StatusCode, e.Error, tc.want)
		}
	}
}

func TestBatchPairLimit(t *testing.T) {
	srv, _ := newTestPortal(t, itracker.Config{Name: "t", ASN: 1})
	pairs := make([]PIDPair, maxBatchPairs+1)
	c := NewClient(srv.URL, "")
	_, err := postBatch(c, pairs)
	if err == nil || !strings.Contains(err.Error(), "batch limit") {
		t.Fatalf("err = %v, want batch-limit rejection", err)
	}
}

// TestBatchMatchesCachedMatrix cross-checks the two serving paths stay
// consistent after a version bump: the batch answer must track the new
// matrix, not a stale PID index.
func TestBatchMatchesCachedMatrix(t *testing.T) {
	srv, tr := newTestPortal(t, itracker.Config{Name: "t", ASN: 1})
	c := NewClient(srv.URL, "")
	if _, err := postBatch(c, []PIDPair{{Src: 0, Dst: 1}}); err != nil {
		t.Fatal(err)
	}
	loads := make([]float64, tr.Engine().Graph().NumLinks())
	loads[0] = 5e9
	tr.ObserveAndUpdate(loads)
	res, err := postBatch(c, []PIDPair{{Src: 0, Dst: 1}})
	if err != nil {
		t.Fatal(err)
	}
	full, err := tr.Distances("")
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != full.Version {
		t.Fatalf("batch served version %d after bump to %d", res.Version, full.Version)
	}
	if res.Distances[0] != full.Distance(0, 1) {
		t.Fatalf("batch %v != view %v after bump", res.Distances[0], full.Distance(0, 1))
	}
}

// postBatch sends pairs to the batch route of c's portal with c's token.
func postBatch(c *Client, pairs []PIDPair) (BatchResponseWire, error) {
	var w BatchResponseWire
	payload, err := json.Marshal(BatchRequestWire{Pairs: pairs})
	if err == nil {
		err = callJSON(c, http.MethodPost, "/p4p/v1/distances/batch", payload, &w)
	}
	return w, err
}

// callJSON sends one request to the root of c's portal, with c's token
// and HTTP client and no retry, and decodes a 200 response into out.
// Any other status is an error that carries the response's envelope.
func callJSON(c *Client, method, pathQuery string, payload []byte, out any) error {
	req, err := http.NewRequest(method, c.root()+pathQuery, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	if c.Token != "" {
		req.Header.Set(tokenHeader, c.Token)
	}
	resp, err := c.HTTPClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return httpErrFromBody(pathQuery, resp.StatusCode, body)
	}
	return json.Unmarshal(body, out)
}

func decodeBody(resp *http.Response, out interface{}) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}
