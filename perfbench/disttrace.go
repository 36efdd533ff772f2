package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"mpcp/internal/dist"
	"mpcp/internal/obs/span"
)

// hopHeader carries a client round-trip span to the coordinator so the
// handler span nests under it. dist's own X-Rt-Trace header stays
// unset: the program under test runs with its tracing off.
const hopHeader = "X-Perfbench-Span"

// distTracer records the dist layers of a traced loopback run: a
// dist.<route> span around every coordinator handler call, and a
// dist.roundtrip span around every client and worker HTTP request,
// ended when the response body is closed. It also counts what spans
// cannot carry: bytes moved, cache hits at submit, empty leases and
// HTTP errors. A nil *distTracer wraps nothing.
type distTracer struct {
	coord *span.Tracer
	tr    *span.Tracer
	root  span.Context
	seq   atomic.Int64

	mu           sync.Mutex
	submitUnits  int
	submitCached int
	leaseEmpty   int
	ingestBytes  int64
	resultsBytes int64
	httpErrors   int
}

func newDistTracer(tr *span.Tracer, root span.Context) *distTracer {
	return &distTracer{coord: tr.WithActor("coordinator"), tr: tr, root: root}
}

// key gives every dist span a distinct key, so span IDs are unique.
func (d *distTracer) key() string { return strconv.FormatInt(d.seq.Add(1), 10) }

// routeOf names the coordinator API route of a request.
func routeOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/jobs":
		return "submit"
	case p == "/v1/lease":
		return "lease"
	case strings.Contains(p, "/shards/"):
		return "ingest"
	case strings.HasSuffix(p, "/results"):
		return "results"
	case strings.HasPrefix(p, "/v1/jobs/"):
		return "status"
	}
	return "other"
}

func (d *distTracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := routeOf(r)
		parent, ok := span.ParseHeader(r.Header.Get(hopHeader))
		if !ok {
			parent = d.root
		}
		sp := d.coord.Start(parent, "dist."+route, d.key())
		body := &countingBody{ReadCloser: r.Body}
		r.Body = body
		rec := &recorder{ResponseWriter: w, keep: route == "submit" || route == "lease"}
		next.ServeHTTP(rec, r)
		sp.End()
		d.observe(route, body.n, rec)
	})
}

func (d *distTracer) observe(route string, in int64, rec *recorder) {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch route {
	case "submit":
		var resp dist.SubmitResponse
		if json.Unmarshal(rec.body.Bytes(), &resp) == nil {
			d.submitUnits += resp.Units
			d.submitCached += resp.Cached
		}
	case "lease":
		var resp dist.LeaseResponse
		if json.Unmarshal(rec.body.Bytes(), &resp) == nil && (resp.Wait || resp.Done) {
			d.leaseEmpty++
		}
	case "ingest":
		d.ingestBytes += in
	case "results":
		d.resultsBytes += rec.n
	}
}

func (d *distTracer) httpError() {
	d.mu.Lock()
	d.httpErrors++
	d.mu.Unlock()
}

// client returns an HTTP client with its own connection pool, traced
// as actor when d is set.
func (d *distTracer) client(actor string) *http.Client {
	var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 4}
	if d != nil {
		rt = &tracedTransport{base: rt, tr: d.tr.WithActor(actor), d: d}
	}
	return &http.Client{Transport: rt}
}

type tracedTransport struct {
	base http.RoundTripper
	tr   *span.Tracer
	d    *distTracer
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sp := t.tr.Start(t.d.root, "dist.roundtrip", t.d.key())
	req = req.Clone(req.Context())
	req.Header.Set(hopHeader, sp.Context().Header())
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.d.httpError()
		sp.End()
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		t.d.httpError()
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, sp: sp}
	return resp, nil
}

// spanBody ends the round-trip span when the caller is done reading.
type spanBody struct {
	io.ReadCloser
	sp *span.Active
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.sp.End()
	return err
}

type countingBody struct {
	io.ReadCloser
	n int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

// recorder counts response bytes and, when keep is set, keeps them.
type recorder struct {
	http.ResponseWriter
	keep bool
	body bytes.Buffer
	n    int64
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.keep {
		r.body.Write(p)
	}
	n, err := r.ResponseWriter.Write(p)
	r.n += int64(n)
	return n, err
}
