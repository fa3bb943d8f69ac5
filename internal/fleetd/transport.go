package fleetd

import (
	"fmt"
	"time"

	"iothub/internal/httplite"
	"iothub/internal/obs"
)

// Transport is one RPC hop from a worker to the coordinator: deliver a JSON
// body to a path, return the JSON reply. Implementations: Loopback (same
// process), HTTPTransport (httplite over TCP), and Chaos (either of those
// wrapped in seeded failure injection).
type Transport interface {
	Call(path string, body []byte) ([]byte, error)
}

// Handler is the coordinator's transport-agnostic RPC surface.
type Handler func(path string, body []byte) (status int, resp []byte)

// Loopback invokes the handler in-process — the transport under the chaos
// tests, where the wire is the thing being lied to, not the thing under
// test.
type Loopback struct {
	H Handler
}

// Call implements Transport.
func (l Loopback) Call(path string, body []byte) ([]byte, error) {
	status, resp := l.H(path, body)
	if status != 200 {
		return nil, fmt.Errorf("fleetd: %s: status %d: %s", path, status, resp)
	}
	return resp, nil
}

// HTTPTransport dials the coordinator once per call — the same
// one-request-per-connection discipline as every other httplite surface, so
// a worker holds no connection state that a coordinator restart could
// invalidate.
type HTTPTransport struct {
	Addr    string
	Timeout time.Duration
}

// Call implements Transport.
func (t HTTPTransport) Call(path string, body []byte) ([]byte, error) {
	resp, err := httplite.Do(t.Addr, &httplite.Request{
		Method:  "POST",
		Path:    path,
		Headers: map[string]string{"Content-Type": "application/json"},
		Body:    body,
	}, t.Timeout)
	if err != nil {
		return nil, fmt.Errorf("fleetd: %s: %w", path, err)
	}
	if resp.Status != 200 {
		return nil, fmt.Errorf("fleetd: %s: status %d: %s", path, resp.Status, resp.Body)
	}
	return resp.Body, nil
}

// ServeHTTP exposes a coordinator on addr: the RPC paths as POST (GET also
// accepted for the read-only /spec and /status), plus GET /metrics serving
// Coordinator.WritePrometheus.
func ServeHTTP(addr string, c *Coordinator) (*httplite.Server, error) {
	metrics := obs.MetricsHandler(c.WritePrometheus)
	jsonHeaders := map[string]string{"Content-Type": "application/json"}
	return httplite.Serve(addr, func(req *httplite.Request) httplite.Reply {
		switch {
		case req.Path == "/metrics":
			return metrics(req)
		case req.Method == "POST" || ((req.Path == "/status" || req.Path == "/spec") && req.Method == "GET"):
			status, resp := c.Handle(req.Path, req.Body)
			reason := "OK"
			if status != 200 {
				reason = "Bad Request"
			}
			if status == 404 {
				reason = "Not Found"
			}
			return httplite.Reply{Status: status, Reason: reason, Headers: jsonHeaders, Body: resp}
		default:
			return httplite.Reply{Status: 405, Reason: "Method Not Allowed",
				Headers: jsonHeaders, Body: []byte(`{"error":"use POST"}`)}
		}
	})
}
