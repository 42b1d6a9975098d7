// The serve verb: cbctl as a long-running sweep service. The process holds
// the in-process scenario cache (and, with -store, the shared persistent
// store) across requests, so repeated and overlapping experiment requests
// become incremental — the "sweep-as-a-service" step of the roadmap.
//
// Endpoints:
//
//	GET /healthz          liveness ("ok")
//	GET /statsz           runtime counters, text/plain: serve request
//	                      counters plus the kernel, I/O, batch-queue,
//	                      scenario-cache and run-store lines of -stats
//	GET /v1/experiments   the catalog as a JSON array
//	GET /v1/run?exp=NAME  run experiments, streaming NDJSON: one compact
//	                      canonical document per line, flushed as each
//	                      experiment completes (repeat exp=, or all=1 for
//	                      the whole catalog) — byte-identical to
//	                      `cbctl run -ndjson`
//
// A run error is reported in-stream as {"experiment":NAME,"error":MSG} and
// the stream continues with the next selected experiment (the transport
// status is already committed once streaming began).
//
// Concurrent requests for overlapping grids dedupe in-flight work through
// the scenario cache's singleflight entries (internal/sweep/runcache.go):
// two clients asking for the same compute point share one simulation, and
// with -store the result is published once for every later process too.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"clusterbooster/internal/engine"
	"clusterbooster/internal/exp"
	"clusterbooster/internal/ioev"
	"clusterbooster/internal/runstore"
	"clusterbooster/internal/sched"
	"clusterbooster/internal/sweep"
)

// runServe starts the HTTP service and blocks until the listener fails.
func runServe(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("cbctl serve", flag.ContinueOnError)
	fs.SetOutput(errw)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	workers := fs.Int("workers", 0, "sweep worker pool bound per request (0 = GOMAXPROCS)")
	store := fs.String("store", "", "persistent run-store directory shared across processes (\"\" = in-process cache only)")
	verbose := fs.Bool("v", false, "per-scenario progress on stderr")
	switch err := fs.Parse(args); {
	case errors.Is(err, flag.ErrHelp):
		return 0
	case err != nil:
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(errw, "cbctl: serve takes no positional arguments")
		return 2
	}
	if *store != "" {
		st, err := runstore.Open(*store, exp.CacheEpoch())
		if err != nil {
			fmt.Fprintf(errw, "cbctl: %v\n", err)
			return 2
		}
		sweep.SetDiskRunStore(st)
	}
	s := &server{workers: *workers}
	if *verbose {
		s.observer = exp.ProgressObserver(errw, "cbctl")
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(errw, "cbctl: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "cbctl: serving on http://%s (epoch %s)\n", ln.Addr(), exp.CacheEpoch())
	if err := s.httpServer().Serve(ln); err != nil {
		fmt.Fprintf(errw, "cbctl: %v\n", err)
		return 1
	}
	return 0
}

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, so a client that connects and never sends them cannot
// hold the connection open forever. Response streams are not bounded: a
// catalog run legitimately takes minutes.
const readHeaderTimeout = 10 * time.Second

// httpServer wraps the handler in the server runServe listens with.
func (s *server) httpServer() *http.Server {
	return &http.Server{Handler: s.handler(), ReadHeaderTimeout: readHeaderTimeout}
}

// server is the HTTP state: run options plus request counters for /statsz.
type server struct {
	workers  int
	observer func(sweep.Event)

	requests  atomic.Uint64 // HTTP requests accepted, all endpoints
	docs      atomic.Uint64 // documents streamed successfully
	runErrors atomic.Uint64 // experiment runs that failed
	canceled  atomic.Uint64 // run requests abandoned by the client mid-stream
}

// handler routes the service's endpoints.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.healthz)
	mux.HandleFunc("GET /statsz", s.statsz)
	mux.HandleFunc("GET /v1/experiments", s.experiments)
	mux.HandleFunc("GET /v1/run", s.run)
	return mux
}

func (s *server) healthz(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// statsz mirrors the -stats stderr lines over HTTP, prefixed with the serve
// counters, so operators and the CI smoke can watch a running service.
func (s *server) statsz(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "serve: requests=%d docs=%d run_errors=%d canceled=%d\n",
		s.requests.Load(), s.docs.Load(), s.runErrors.Load(), s.canceled.Load())
	fmt.Fprintf(w, "kernel %s\n", engine.Global())
	fmt.Fprintf(w, "io %s\n", ioev.Global())
	fmt.Fprintf(w, "queue %s\n", sched.Global())
	fmt.Fprintf(w, "%s\n", sweep.RunCacheStats())
	if st := sweep.DiskRunStore(); st != nil {
		fmt.Fprintf(w, "run store: %s\n", st.Stats())
	} else {
		fmt.Fprintln(w, "run store: disabled")
	}
}

// experiments lists the catalog in registration (paper) order.
func (s *server) experiments(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	type row struct {
		Name    string `json:"name"`
		Version int    `json:"version"`
		Title   string `json:"title"`
		Profile string `json:"profile"`
		Grid    string `json:"grid"`
		Budgets int    `json:"budgets"`
	}
	var rows []row
	for _, e := range exp.All() {
		rows = append(rows, row{e.Name, e.Version, e.Title, e.Profile, e.Grid, len(e.Budgets)})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(rows)
}

// run streams the selected experiments as NDJSON.
func (s *server) run(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	q := r.URL.Query()
	var exps []exp.Experiment
	var err error
	switch {
	case q.Get("all") != "":
		if len(q["exp"]) != 0 {
			err = fmt.Errorf("all=1 and exp= are mutually exclusive")
		} else {
			exps = exp.All()
		}
	case len(q["exp"]) != 0:
		exps, err = exp.Resolve(q["exp"])
	default:
		err = fmt.Errorf("no experiments selected (repeat exp=NAME, or pass all=1)")
	}
	if err != nil {
		http.Error(w, "cbctl serve: "+err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	// The request context cancels the in-flight run: a disconnected client
	// stops the stream between experiments, and inside one the sweep engine
	// starts no further scenarios (already-running simulations finish — they
	// are synchronous and never torn down mid-run, and their results stay
	// cached for the next request).
	ctx := r.Context()
	opts := exp.Options{Workers: s.workers, Observer: s.observer, Context: ctx}
	for _, e := range exps {
		if ctx.Err() != nil {
			s.canceled.Add(1)
			return
		}
		line, err := runNDJSONLine(e, opts)
		if err != nil {
			if ctx.Err() != nil {
				// Cancellation surfaces as a run error; count it as a
				// canceled request, not a failed experiment, and stop — the
				// client is gone.
				s.canceled.Add(1)
				return
			}
			s.runErrors.Add(1)
			line, _ = json.Marshal(struct {
				Experiment string `json:"experiment"`
				Error      string `json:"error"`
			}{e.Name, err.Error()})
			line = append(line, '\n')
		} else {
			s.docs.Add(1)
		}
		w.Write(line)
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// runNDJSONLine executes one experiment and renders its compact stream line.
func runNDJSONLine(e exp.Experiment, opts exp.Options) ([]byte, error) {
	doc, err := e.Run(opts)
	if err != nil {
		return nil, err
	}
	return doc.NDJSON()
}
