// Package httplite is a minimal HTTP/1.1 request writer and response parser
// for constrained clients — the wire layer the REST workloads (A4's AT&T M2X
// client, A6's Dropbox manager) use to talk to their clouds. It supports
// exactly what an embedded uploader needs: one request per connection,
// explicit Content-Length bodies, and flat header handling.
package httplite

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Request is one outbound HTTP/1.1 request.
type Request struct {
	Method  string
	Path    string
	Host    string
	Headers map[string]string
	Body    []byte
}

// Errors callers match with errors.Is.
var (
	ErrMalformed = errors.New("httplite: malformed message")
	ErrTooLarge  = errors.New("httplite: message too large")
)

// Parser limits. The parsers were originally client-side only; now that
// httplite also backs server loops (obs metrics, fleetd RPC) they bound every
// dimension an attacker controls.
const (
	// maxHeaderBytes bounds the header block.
	maxHeaderBytes = 16 * 1024
	// maxHeaderCount bounds the number of header lines.
	maxHeaderCount = 64
	// maxBodyBytes bounds a declared Content-Length.
	maxBodyBytes = 4 << 20
)

var validMethods = map[string]bool{
	"GET": true, "POST": true, "PUT": true, "DELETE": true,
	"HEAD": true, "PATCH": true,
}

// Marshal serializes the request. Content-Length and Host are emitted
// automatically; user headers are written in sorted order so output is
// deterministic.
func (r *Request) Marshal() ([]byte, error) {
	if !validMethods[r.Method] {
		return nil, fmt.Errorf("%w: method %q", ErrMalformed, r.Method)
	}
	if r.Path == "" || !strings.HasPrefix(r.Path, "/") {
		return nil, fmt.Errorf("%w: path %q", ErrMalformed, r.Path)
	}
	if r.Host == "" {
		return nil, fmt.Errorf("%w: missing host", ErrMalformed)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\n", r.Method, r.Path)
	fmt.Fprintf(&b, "Host: %s\r\n", r.Host)
	keys := make([]string, 0, len(r.Headers))
	for k := range r.Headers {
		kl := strings.ToLower(k)
		if kl == "host" || kl == "content-length" {
			continue // always derived
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if strings.TrimSpace(k) == "" || strings.ContainsAny(k, "\r\n:") || strings.ContainsAny(r.Headers[k], "\r\n") {
			return nil, fmt.Errorf("%w: header %q", ErrMalformed, k)
		}
		fmt.Fprintf(&b, "%s: %s\r\n", k, r.Headers[k])
	}
	if len(r.Body) > 0 || r.Method == "POST" || r.Method == "PUT" || r.Method == "PATCH" {
		fmt.Fprintf(&b, "Content-Length: %d\r\n", len(r.Body))
	}
	b.WriteString("\r\n")
	b.Write(r.Body)
	return b.Bytes(), nil
}

// ParseRequest parses a serialized request (the server side of tests and
// examples).
func ParseRequest(raw []byte) (*Request, error) {
	head, body, err := splitHead(raw)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(head, "\r\n")
	parts := strings.Split(lines[0], " ")
	if len(parts) != 3 || parts[2] != "HTTP/1.1" {
		return nil, fmt.Errorf("%w: request line %q", ErrMalformed, lines[0])
	}
	req := &Request{
		Method:  parts[0],
		Path:    parts[1],
		Headers: make(map[string]string),
	}
	if !validMethods[req.Method] {
		return nil, fmt.Errorf("%w: method %q", ErrMalformed, req.Method)
	}
	if len(lines) > maxHeaderCount+1 {
		return nil, fmt.Errorf("%w: %d header lines", ErrTooLarge, len(lines)-1)
	}
	cl := -1
	for _, line := range lines[1:] {
		k, v, err := splitHeader(line)
		if err != nil {
			return nil, err
		}
		switch strings.ToLower(k) {
		case "host":
			req.Host = v
		case "content-length":
			if cl >= 0 {
				// Duplicate Content-Length is the classic request-smuggling
				// vector: two parsers picking different values see two
				// different bodies. Reject instead of picking one.
				return nil, fmt.Errorf("%w: duplicate content-length", ErrMalformed)
			}
			cl, err = strconv.Atoi(v)
			if err != nil || cl < 0 {
				return nil, fmt.Errorf("%w: content-length %q", ErrMalformed, v)
			}
		default:
			req.Headers[k] = v
		}
	}
	if req.Host == "" {
		return nil, fmt.Errorf("%w: missing host", ErrMalformed)
	}
	if cl > maxBodyBytes {
		return nil, fmt.Errorf("%w: body %d bytes", ErrTooLarge, cl)
	}
	if cl >= 0 {
		if len(body) < cl {
			return nil, fmt.Errorf("%w: body %d bytes, declared %d", ErrMalformed, len(body), cl)
		}
		req.Body = append([]byte(nil), body[:cl]...)
	}
	return req, nil
}

// Response is one inbound HTTP/1.1 response.
type Response struct {
	Status  int
	Reason  string
	Headers map[string]string
	Body    []byte
}

// MarshalResponse serializes a response (used by the simulated cloud side).
func MarshalResponse(status int, reason string, headers map[string]string, body []byte) ([]byte, error) {
	if status < 100 || status > 599 {
		return nil, fmt.Errorf("%w: status %d", ErrMalformed, status)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "HTTP/1.1 %d %s\r\n", status, reason)
	keys := make([]string, 0, len(headers))
	for k := range headers {
		if strings.EqualFold(k, "content-length") {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s: %s\r\n", k, headers[k])
	}
	fmt.Fprintf(&b, "Content-Length: %d\r\n\r\n", len(body))
	b.Write(body)
	return b.Bytes(), nil
}

// ParseResponse parses a serialized response.
func ParseResponse(raw []byte) (*Response, error) {
	head, body, err := splitHead(raw)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(head, "\r\n")
	parts := strings.SplitN(lines[0], " ", 3)
	if len(parts) < 2 || parts[0] != "HTTP/1.1" {
		return nil, fmt.Errorf("%w: status line %q", ErrMalformed, lines[0])
	}
	status, err := strconv.Atoi(parts[1])
	if err != nil || status < 100 || status > 599 {
		return nil, fmt.Errorf("%w: status %q", ErrMalformed, parts[1])
	}
	resp := &Response{Status: status, Headers: make(map[string]string)}
	if len(parts) == 3 {
		resp.Reason = parts[2]
	}
	if len(lines) > maxHeaderCount+1 {
		return nil, fmt.Errorf("%w: %d header lines", ErrTooLarge, len(lines)-1)
	}
	cl := -1
	for _, line := range lines[1:] {
		k, v, err := splitHeader(line)
		if err != nil {
			return nil, err
		}
		if strings.EqualFold(k, "content-length") {
			if cl >= 0 {
				return nil, fmt.Errorf("%w: duplicate content-length", ErrMalformed)
			}
			cl, err = strconv.Atoi(v)
			if err != nil || cl < 0 {
				return nil, fmt.Errorf("%w: content-length %q", ErrMalformed, v)
			}
			continue
		}
		resp.Headers[k] = v
	}
	if cl > maxBodyBytes {
		return nil, fmt.Errorf("%w: body %d bytes", ErrTooLarge, cl)
	}
	if cl >= 0 {
		if len(body) < cl {
			return nil, fmt.Errorf("%w: body %d bytes, declared %d", ErrMalformed, len(body), cl)
		}
		resp.Body = append([]byte(nil), body[:cl]...)
	}
	return resp, nil
}

func splitHead(raw []byte) (head string, body []byte, err error) {
	idx := bytes.Index(raw, []byte("\r\n\r\n"))
	if idx < 0 {
		return "", nil, fmt.Errorf("%w: no header terminator", ErrMalformed)
	}
	if idx > maxHeaderBytes {
		return "", nil, fmt.Errorf("%w: headers %d bytes", ErrTooLarge, idx)
	}
	return string(raw[:idx]), raw[idx+4:], nil
}

// splitHeader splits one header line at its first colon into a trimmed
// name, which must not be blank, and a trimmed value.
func splitHeader(line string) (key, value string, err error) {
	name, value, ok := strings.Cut(line, ":")
	key = strings.TrimSpace(name)
	if !ok || key == "" {
		return "", "", fmt.Errorf("%w: header line %q", ErrMalformed, line)
	}
	return key, strings.TrimSpace(value), nil
}
