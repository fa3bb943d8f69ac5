// MetricsServer: a Prometheus scrape endpoint on httplite's server loop.
// The fleet CLI and fleetd coordinator are the intended client surfaces —
// one GET /metrics per connection, text exposition format out — so the
// embedded wire layer is a better fit than net/http: no mux, no keep-alive
// state, and the same hardened parser the simulated REST workloads and the
// fleetd RPC already exercise.

package obs

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"time"

	"iothub/internal/httplite"
)

// serverIOTimeout bounds how long one scrape may hold a connection.
const serverIOTimeout = 5 * time.Second

// MetricsServer serves a Gauges set at GET /metrics, one request per
// connection.
type MetricsServer struct {
	srv *httplite.Server
}

// StartMetricsServer binds addr (e.g. ":9090" or "127.0.0.1:0") and serves
// g until Close.
func StartMetricsServer(addr string, g *Gauges) (*MetricsServer, error) {
	srv, err := httplite.Serve(addr, MetricsHandler(g.WritePrometheus))
	if err != nil {
		return nil, fmt.Errorf("obs: metrics listen %s: %w", addr, err)
	}
	return &MetricsServer{srv: srv}, nil
}

// MetricsHandler is the GET /metrics endpoint as a composable httplite
// handler serving the page render writes, so servers with richer routing
// (the fleetd coordinator) can mount the same scrape surface the standalone
// MetricsServer exposes.
func MetricsHandler(render func(io.Writer) error) httplite.Handler {
	return func(req *httplite.Request) httplite.Reply {
		if req.Method != "GET" || strings.SplitN(req.Path, "?", 2)[0] != "/metrics" {
			return httplite.Reply{Status: 404, Reason: "Not Found",
				Headers: map[string]string{"Content-Type": "text/plain; charset=utf-8"},
				Body:    []byte("not found\n")}
		}
		// A page render fails only when its writer does, and a Buffer never
		// does.
		var page bytes.Buffer
		_ = render(&page)
		return httplite.Reply{Status: 200, Reason: "OK",
			Headers: map[string]string{"Content-Type": "text/plain; version=0.0.4; charset=utf-8"},
			Body:    page.Bytes()}
	}
}

// Addr is the bound address (useful with ":0").
func (s *MetricsServer) Addr() string { return s.srv.Addr() }

// Close stops the listener and waits for in-flight scrapes.
func (s *MetricsServer) Close() error { return s.srv.Close() }

// Scrape fetches the metrics endpoint at addr once and returns the
// exposition body — the self-check iotfleet runs after a sweep, and what CI
// greps.
func Scrape(addr string) (string, error) {
	return scrapeRaw(addr, "/metrics")
}

func scrapeRaw(addr, path string) (string, error) {
	resp, err := httplite.Do(addr, &httplite.Request{Method: "GET", Path: path}, serverIOTimeout)
	if err != nil {
		return "", fmt.Errorf("obs: scrape %s: %w", addr, err)
	}
	if resp.Status != 200 {
		return "", fmt.Errorf("obs: scrape status %d", resp.Status)
	}
	return string(resp.Body), nil
}
