package fleetd

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"iothub/internal/obs"
)

// Transport is one RPC hop from a worker to the coordinator: deliver a JSON
// body to a path, return the JSON reply. Implementations: Loopback (same
// process), HTTPTransport (net/http over TCP, built by obs), and Chaos
// (either of those wrapped in seeded failure injection).
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

// HTTPTransport POSTs each call to the coordinator on a connection of its
// own (obs.Do), so a worker holds no connection state that a coordinator
// restart could invalidate.
type HTTPTransport struct {
	Addr    string
	Timeout time.Duration
}

// Call implements Transport.
func (t HTTPTransport) Call(path string, body []byte) ([]byte, error) {
	status, resp, err := obs.Do(http.MethodPost, t.Addr, path, body, t.Timeout)
	if err != nil {
		return nil, fmt.Errorf("fleetd: %s: %w", path, err)
	}
	if status != 200 {
		return nil, fmt.Errorf("fleetd: %s: status %d: %s", path, status, resp)
	}
	return resp, nil
}

// ServeHTTP exposes a coordinator on addr: the RPC paths as POST (GET also
// accepted for the read-only /spec and /status), plus GET /metrics serving
// Coordinator.WritePrometheus. A body over obs's cap gets 413.
func ServeHTTP(addr string, c *Coordinator) (*obs.Server, error) {
	metrics := obs.MetricsHandler(c.WritePrometheus)
	return obs.Serve(addr, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		path := r.URL.Path
		var status int
		var resp []byte
		switch {
		case path == "/metrics":
			metrics.ServeHTTP(w, r)
			return
		case r.Method == http.MethodPost || (path == "/status" || path == "/spec") && r.Method == http.MethodGet:
			body, err := io.ReadAll(r.Body)
			if err != nil {
				status, resp = badRequest(err)
				if errors.As(err, new(*http.MaxBytesError)) {
					status = http.StatusRequestEntityTooLarge
				}
				break
			}
			status, resp = c.Handle(path, body)
		default:
			status, resp = http.StatusMethodNotAllowed, []byte(`{"error":"use POST"}`)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		_, _ = w.Write(resp) // a failed write has no one left to tell
	}))
}
