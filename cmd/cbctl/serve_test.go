package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"clusterbooster/internal/exp"
)

// registerServeFakes adds a failing experiment for the error-line path and
// a cancelling one for the client-disconnect path. The catalog is
// process-global, so register exactly once (like registerFakes).
var registerServeFakes = sync.OnceFunc(func() {
	failing := exp.Experiment{
		Name: "test/failing", Title: "always-failing fake", Version: 1, Grid: "static", Profile: "n/a",
	}
	failing.Run = func(exp.Options) (exp.Document, error) {
		return exp.Document{}, io.ErrUnexpectedEOF
	}
	exp.Register(failing)

	cancelling := exp.Experiment{
		Name: "test/cancelling", Title: "client-vanishes fake", Version: 1, Grid: "static", Profile: "n/a",
	}
	cancelling.Run = func(o exp.Options) (exp.Document, error) {
		if o.Context == nil {
			return exp.Document{}, errors.New("request context not plumbed into exp.Options")
		}
		if serveCancelHook != nil {
			serveCancelHook() // the client hangs up while this run is in flight
		}
		return fakeDoc(cancelling, 1.0), nil
	}
	exp.Register(cancelling)
})

// serveCancelHook, when set, is invoked from test/cancelling's Run.
var serveCancelHook func()

// serveGet issues one request against the serve handler without a network
// listener and returns the recorded response.
func serveGet(t *testing.T, s *server, target string) *httptest.ResponseRecorder {
	t.Helper()
	registerFakes()
	registerServeFakes()
	rec := httptest.NewRecorder()
	s.handler().ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
	return rec
}

func TestServeHealthz(t *testing.T) {
	rec := serveGet(t, &server{}, "/healthz")
	if rec.Code != 200 || rec.Body.String() != "ok\n" {
		t.Fatalf("healthz: code %d body %q", rec.Code, rec.Body.String())
	}
}

func TestServeExperimentsCatalog(t *testing.T) {
	rec := serveGet(t, &server{}, "/v1/experiments")
	if rec.Code != 200 {
		t.Fatalf("experiments: code %d", rec.Code)
	}
	var rows []struct {
		Name    string `json:"name"`
		Version int    `json:"version"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &rows); err != nil {
		t.Fatalf("experiments: invalid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, r := range rows {
		if r.Version < 1 {
			t.Fatalf("experiments: %s has version %d", r.Name, r.Version)
		}
		names[r.Name] = true
	}
	if !names["test/stable"] {
		t.Fatalf("experiments: catalog %v missing test/stable", names)
	}
}

// TestServeRunMatchesCLI is the stream contract: the bytes served for an
// experiment are identical to `cbctl run -ndjson` for the same experiment.
func TestServeRunMatchesCLI(t *testing.T) {
	rec := serveGet(t, &server{}, "/v1/run?exp=test/stable")
	if rec.Code != 200 {
		t.Fatalf("run: code %d body %q", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("run: Content-Type %q", ct)
	}
	code, stdout, stderr := cbctl(t, "run", "-ndjson", "test/stable")
	if code != 0 {
		t.Fatalf("cbctl run -ndjson failed: %d\n%s", code, stderr)
	}
	if rec.Body.String() != stdout {
		t.Fatalf("serve stream != cli stream:\nserve: %q\ncli:   %q", rec.Body.String(), stdout)
	}
}

func TestServeRunMultipleAndErrorLine(t *testing.T) {
	s := &server{}
	rec := serveGet(t, s, "/v1/run?exp=test/failing&exp=test/stable")
	if rec.Code != 200 {
		t.Fatalf("run: code %d", rec.Code)
	}
	lines := strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("run: got %d lines, want 2:\n%s", len(lines), rec.Body.String())
	}
	var errLine struct {
		Experiment string `json:"experiment"`
		Error      string `json:"error"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &errLine); err != nil {
		t.Fatalf("run: error line is not JSON: %v", err)
	}
	if errLine.Experiment != "test/failing" || errLine.Error == "" {
		t.Fatalf("run: error line %+v", errLine)
	}
	// The stream continues past the failure.
	var doc exp.Document
	if err := json.Unmarshal([]byte(lines[1]), &doc); err != nil || doc.Experiment != "test/stable" {
		t.Fatalf("run: second line %q (err %v)", lines[1], err)
	}
	if s.docs.Load() != 1 || s.runErrors.Load() != 1 {
		t.Fatalf("run: counters docs=%d run_errors=%d, want 1 and 1", s.docs.Load(), s.runErrors.Load())
	}
}

// TestServeRunClientGoneBeforeStart: a request whose context is already
// dead streams nothing and counts as canceled, not as a run error.
func TestServeRunClientGoneBeforeStart(t *testing.T) {
	registerFakes()
	registerServeFakes()
	s := &server{}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/v1/run?exp=test/stable", nil).WithContext(ctx)
	s.handler().ServeHTTP(rec, req)
	if got := rec.Body.String(); got != "" {
		t.Fatalf("dead request streamed %q", got)
	}
	if s.canceled.Load() != 1 || s.docs.Load() != 0 || s.runErrors.Load() != 0 {
		t.Fatalf("counters canceled=%d docs=%d run_errors=%d, want 1/0/0",
			s.canceled.Load(), s.docs.Load(), s.runErrors.Load())
	}
}

// TestServeRunClientGoneMidStream: the client disconnects while the first
// experiment runs; its document still streams (it completed), but the next
// selected experiment never starts.
func TestServeRunClientGoneMidStream(t *testing.T) {
	registerFakes()
	registerServeFakes()
	s := &server{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveCancelHook = cancel
	defer func() { serveCancelHook = nil }()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/v1/run?exp=test/cancelling&exp=test/stable", nil).WithContext(ctx)
	s.handler().ServeHTTP(rec, req)
	lines := strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d stream lines, want 1 (the in-flight experiment only):\n%s",
			len(lines), rec.Body.String())
	}
	var doc exp.Document
	if err := json.Unmarshal([]byte(lines[0]), &doc); err != nil || doc.Experiment != "test/cancelling" {
		t.Fatalf("first line %q (err %v)", lines[0], err)
	}
	if s.canceled.Load() != 1 || s.docs.Load() != 1 {
		t.Fatalf("counters canceled=%d docs=%d, want 1/1", s.canceled.Load(), s.docs.Load())
	}
}

func TestServeRunBadRequests(t *testing.T) {
	for _, target := range []string{
		"/v1/run",                       // nothing selected
		"/v1/run?exp=no/such/exp",       // unknown name
		"/v1/run?all=1&exp=test/stable", // mutually exclusive
	} {
		if rec := serveGet(t, &server{}, target); rec.Code != 400 {
			t.Errorf("%s: code %d, want 400", target, rec.Code)
		}
	}
}

func TestServeStatsz(t *testing.T) {
	s := &server{}
	serveGet(t, s, "/healthz")
	rec := serveGet(t, s, "/statsz")
	if rec.Code != 200 {
		t.Fatalf("statsz: code %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"serve: requests=", "kernel ", "scenario cache:", "run store:"} {
		if !strings.Contains(body, want) {
			t.Errorf("statsz: missing %q in:\n%s", want, body)
		}
	}
}

// TestServeReadHeaderTimeout pins the header and idle deadlines on the
// server runServe listens with: without them, a client that connects and
// never sends its request headers, or an idle keep-alive connection, holds
// the connection forever.
func TestServeReadHeaderTimeout(t *testing.T) {
	srv := (&server{}).httpServer()
	if srv.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want the positive constant %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.IdleTimeout != idleTimeout || idleTimeout <= 0 {
		t.Fatalf("IdleTimeout = %v, want the positive constant %v", srv.IdleTimeout, idleTimeout)
	}
	if srv.Handler == nil {
		t.Fatal("server has no handler")
	}
}
