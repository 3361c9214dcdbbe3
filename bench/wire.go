package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"p4p/internal/apptracker"
	"p4p/internal/core"
	"p4p/internal/telemetry"
)

// discardLogger is the per-request logger of the binaries with its
// output thrown away: every request still pays for formatting its line.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// servers runs the HTTP servers of one site on loopback and stops them.
type servers struct {
	wg   sync.WaitGroup
	list []*http.Server
}

// serve starts h on 127.0.0.1:0 with the timeouts cmd/itracker,
// cmd/p4pfed and cmd/apptracker set, and returns its base URL.
func (s *servers) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen on loopback: %w", err)
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	s.list = append(s.list, srv)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = srv.Serve(ln) // returns ErrServerClosed once close() runs
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops every server and waits until each Serve has returned.
func (s *servers) close() {
	for _, srv := range s.list {
		_ = srv.Close() // loopback listener; nothing to recover from a close error
	}
	s.wg.Wait()
}

// traced wraps h so that each request is a span named name, caused by
// the span the caller sent in X-Bench-Span and labelled "<method>
// <status>". With tracing off it returns h itself.
func traced(rec *recorder, name string, h http.Handler) http.Handler {
	if rec == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		l := rec.begin(name, parseSpanHeader(r.Header.Get(benchSpanHeader)))
		sw := &telemetry.StatusWriter{ResponseWriter: w}
		h.ServeHTTP(sw, r.WithContext(withSpan(r.Context(), l.spanRef)))
		rec.end(l, r.Method+" "+strconv.Itoa(sw.Status()))
	})
}

// tracedTransport is the http.RoundTripper wrapper: one wire.roundtrip
// span per request, from send until the response body is closed, whose
// id travels to the server in X-Bench-Span.
type tracedTransport struct {
	rec  *recorder
	next http.RoundTripper
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	l := t.rec.begin(spanWire, spanFrom(req.Context()))
	req = req.Clone(req.Context())
	req.Header.Set(benchSpanHeader, l.header())
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		t.rec.end(l, "error")
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, rec: t.rec, live: l, attr: strconv.Itoa(resp.StatusCode)}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	rec  *recorder
	live liveSpan
	attr string
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.rec.end(b.live, b.attr) })
	return err
}

// transport returns a fresh HTTP transport, wrapped when tracing is on.
// maxConns > 0 pins it to that many connections per host.
func transport(rec *recorder, maxConns int) http.RoundTripper {
	t := http.DefaultTransport.(*http.Transport).Clone()
	if maxConns > 0 {
		t.MaxConnsPerHost = maxConns
		t.MaxIdleConnsPerHost = maxConns
	}
	if rec == nil {
		return t
	}
	return &tracedTransport{rec: rec, next: t}
}

// caller is one generator goroutine's HTTP side: a client pinned to a
// single keep-alive connection and a reusable body buffer.
type caller struct {
	rec *recorder
	hc  *http.Client
	buf bytes.Buffer
}

func newCaller(rec *recorder) *caller {
	return &caller{rec: rec, hc: &http.Client{Transport: transport(rec, 1), Timeout: 30 * time.Second}}
}

// reply is a drained response; body aliases the caller's buffer and is
// valid until the caller's next fetch.
type reply struct {
	status int
	etag   string
	body   []byte
}

// fetch issues one request as a client.fetch span and drains the reply.
func (c *caller) fetch(root spanRef, method, url string, payload []byte, ifNoneMatch string) (reply, error) {
	l := c.rec.begin(spanClientFetch, root)
	defer func() { c.rec.end(l, "") }()
	ctx := context.Background()
	if c.rec != nil {
		ctx = withSpan(ctx, l.spanRef)
	}
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return reply{}, fmt.Errorf("build request: %w", err)
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return reply{}, fmt.Errorf("read %s %s: %w", method, url, err)
	}
	return reply{status: resp.StatusCode, etag: resp.Header.Get("ETag"), body: c.buf.Bytes()}, nil
}

// tracedSelector, tracedViews and tracedFetcher wrap the three
// apptracker interfaces a selection crosses. The first two carry no
// context, so they parent through the shared call stack.
type tracedSelector struct {
	stack *callStack
	next  apptracker.Selector
}

func (t *tracedSelector) Name() string { return t.next.Name() }

func (t *tracedSelector) Select(self apptracker.Node, candidates []apptracker.Node, m int, rng *rand.Rand) []int {
	l := t.stack.push(spanSelect)
	defer t.stack.pop(l, "")
	return t.next.Select(self, candidates, m, rng)
}

type tracedViews struct {
	stack *callStack
	next  apptracker.ViewProvider
}

func (t *tracedViews) ViewFor(asn int) apptracker.DistanceView {
	l := t.stack.push(spanViewFor)
	defer t.stack.pop(l, "")
	return t.next.ViewFor(asn)
}

type tracedFetcher struct {
	stack *callStack
	next  apptracker.ViewFetcher
}

func (t *tracedFetcher) DistancesContext(ctx context.Context) (*core.View, error) {
	l := t.stack.push(spanFetch)
	defer t.stack.pop(l, "")
	return t.next.DistancesContext(withSpan(ctx, l.spanRef))
}
