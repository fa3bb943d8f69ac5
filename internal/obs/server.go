// HTTP serving for the Prometheus scrape endpoint and the fleetd
// coordinator/worker RPC, on net/http. This file is the one place that
// builds the server and the client, so every exchange with a peer keeps the
// same bounds: at most 16 KiB of headers and 4 MiB of body, 5 s of I/O, one
// request per client connection, and a Close that waits for in-flight
// exchanges.

package obs

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// Bounds on what a peer can make a server or client read, and for how long.
// The size caps are the ones the simulated REST workloads' wire codec
// (internal/httplite) enforces.
const (
	maxHeaderBytes = 16 << 10
	maxBodyBytes   = 4 << 20
	ioTimeout      = 5 * time.Second
)

// Server serves one handler on a bound address until Close.
type Server struct {
	srv  *http.Server
	addr string
	done chan struct{} // closed once the serve loop has returned
}

// Serve binds addr (e.g. ":9090" or "127.0.0.1:0") and serves h until Close.
// h reads the request body through a reader that fails with
// *http.MaxBytesError past the cap; net/http answers a header block over its
// cap with 431 and a malformed request with 400.
func Serve(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{addr: ln.Addr().String(), done: make(chan struct{})}
	s.srv = &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
			h.ServeHTTP(w, r)
		}),
		MaxHeaderBytes: maxHeaderBytes,
		ReadTimeout:    ioTimeout,
		WriteTimeout:   ioTimeout,
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // http.ErrServerClosed once Close has run
	}()
	return s, nil
}

// Addr is the bound address (useful with ":0").
func (s *Server) Addr() string { return s.addr }

// Close stops accepting, waits for in-flight exchanges, and returns once the
// serve loop has exited. A second Close returns nil.
func (s *Server) Close() error {
	err := s.srv.Shutdown(context.Background())
	<-s.done
	return err
}

// StartMetricsServer serves g at GET /metrics on addr until Close.
func StartMetricsServer(addr string, g *Gauges) (*Server, error) {
	return Serve(addr, MetricsHandler(g.WritePrometheus))
}

// MetricsHandler serves the page render writes at GET /metrics and 404s
// everything else, so a server with more routes (the fleetd coordinator)
// mounts the same scrape surface StartMetricsServer exposes.
func MetricsHandler(render func(io.Writer) error) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet || r.URL.Path != "/metrics" {
			http.Error(w, "not found", http.StatusNotFound)
			return
		}
		// A page render fails only when its writer does, and a Buffer never
		// does.
		var page bytes.Buffer
		_ = render(&page)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write(page.Bytes()) // a failed write has no one left to tell
	})
}

// client makes one request per connection: a fleetd worker then holds no
// connection state that a coordinator restart could invalidate, and sees a
// coordinator that has exited as a refused dial.
var client = &http.Transport{DisableKeepAlives: true, MaxResponseHeaderBytes: maxHeaderBytes}

// Do makes one exchange with the server at addr, within timeout (5 s when
// not positive), and returns the reply's status and body. A reply body over
// the cap is an error.
func Do(method, addr, path string, body []byte, timeout time.Duration) (int, []byte, error) {
	if timeout <= 0 {
		timeout = ioTimeout
	}
	req, err := http.NewRequest(method, "http://"+addr+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := (&http.Client{Transport: client, Timeout: timeout}).Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes+1))
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: read reply: %w", method, path, err)
	}
	if len(reply) > maxBodyBytes {
		return 0, nil, fmt.Errorf("%s %s: reply body over %d bytes", method, path, maxBodyBytes)
	}
	return resp.StatusCode, reply, nil
}

// Scrape fetches the metrics endpoint at addr once and returns the
// exposition body — the self-check iotfleet runs after a sweep, and what CI
// greps.
func Scrape(addr string) (string, error) {
	status, body, err := Do(http.MethodGet, addr, "/metrics", nil, ioTimeout)
	if err != nil {
		return "", fmt.Errorf("obs: scrape %s: %w", addr, err)
	}
	if status != http.StatusOK {
		return "", fmt.Errorf("obs: scrape status %d", status)
	}
	return string(body), nil
}
