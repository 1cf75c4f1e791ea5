package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
)

// target is where the closed-loop client sends requests: a handler
// called in-process (single-daemon workloads) or a base URL reached
// over a keep-alive loopback connection (fleet workload). Requests are
// built once and reused, and response bodies land in a caller-owned
// buffer, so the client's own work inside a timed batch is small and
// constant.
type target interface {
	// newRequest builds a reusable body-less request for pathQuery.
	newRequest(ctx context.Context, method, pathQuery string) (*http.Request, error)
	// do sends req, appends the response body to body and returns the
	// status. The next call may reuse req.
	do(req *http.Request, body *bytes.Buffer) (int, error)
}

// inproc calls an http.Handler directly with a reusable
// ResponseWriter.
type inproc struct {
	h http.Handler
	w bufWriter
}

func (t *inproc) newRequest(ctx context.Context, method, pathQuery string) (*http.Request, error) {
	return http.NewRequestWithContext(ctx, method, pathQuery, nil)
}

func (t *inproc) do(req *http.Request, body *bytes.Buffer) (int, error) {
	t.w.reset(body)
	t.h.ServeHTTP(&t.w, req)
	return t.w.status, nil
}

// bufWriter is the minimal http.ResponseWriter: headers into a reused
// map, body into the caller's buffer.
type bufWriter struct {
	header http.Header
	body   *bytes.Buffer
	status int
}

func (w *bufWriter) reset(body *bytes.Buffer) {
	if w.header == nil {
		w.header = http.Header{}
	}
	clear(w.header)
	w.body = body
	w.status = http.StatusOK
}

func (w *bufWriter) Header() http.Header         { return w.header }
func (w *bufWriter) WriteHeader(status int)      { w.status = status }
func (w *bufWriter) Write(p []byte) (int, error) { return w.body.Write(p) }

// overHTTP sends requests to base over c's keep-alive connections.
type overHTTP struct {
	base string
	c    *http.Client
}

func (t *overHTTP) newRequest(ctx context.Context, method, pathQuery string) (*http.Request, error) {
	return http.NewRequestWithContext(ctx, method, t.base+pathQuery, nil)
}

func (t *overHTTP) do(req *http.Request, body *bytes.Buffer) (int, error) {
	resp, err := t.c.Do(req)
	if err != nil {
		return 0, fmt.Errorf("%s %s: %w", req.Method, req.URL.Path, err)
	}
	_, err = io.Copy(body, resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, fmt.Errorf("%s %s: reading response: %w", req.Method, req.URL.Path, err)
	}
	return resp.StatusCode, nil
}

// once sends a single request and returns status and body; for the
// operations that are not batched.
func once(ctx context.Context, t target, method, pathQuery string) (int, []byte, error) {
	req, err := t.newRequest(ctx, method, pathQuery)
	if err != nil {
		return 0, nil, err
	}
	var body bytes.Buffer
	status, err := t.do(req, &body)
	return status, body.Bytes(), err
}
