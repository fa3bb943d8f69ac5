package httplite

import (
	"bytes"
	"strings"
	"testing"
)

// contentLengths counts the header lines of a raw message that name
// Content-Length by the parser's own rule: the trimmed, case-folded text
// before the line's first colon. The start line and the body are not
// headers.
func contentLengths(raw []byte) int {
	if idx := bytes.Index(raw, []byte("\r\n\r\n")); idx >= 0 {
		raw = raw[:idx]
	}
	n := 0
	for _, line := range strings.Split(string(raw), "\r\n")[1:] {
		name, _, ok := strings.Cut(line, ":")
		if ok && strings.EqualFold(strings.TrimSpace(name), "content-length") {
			n++
		}
	}
	return n
}

// FuzzParseRequest: never panic; accepted requests re-marshal and re-parse.
func FuzzParseRequest(f *testing.F) {
	req := &Request{Method: "POST", Path: "/x", Host: "h", Body: []byte("b")}
	wire, err := req.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wire)
	f.Add([]byte("GET / HTTP/1.1\r\nHost: h\r\n\r\n"))
	// Hardening seeds: smuggled duplicate Content-Length (must reject), an
	// oversized body declaration, and a header flood — the server-side abuse
	// shapes the limits exist for.
	f.Add([]byte("POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 2\r\nContent-Length: 4\r\n\r\nabcd"))
	f.Add([]byte("POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 99999999\r\n\r\n"))
	f.Add([]byte("GET / HTTP/1.1\r\nHost: h\r\n" + strings.Repeat("X: y\r\n", 100) + "\r\n"))
	// Content-Length outside header names is no duplicate; a blank header
	// name must be rejected, since Marshal could not write it back.
	f.Add([]byte("GET /content-length HTTP/1.1\r\nHost: h\r\nX: content-length\r\n\r\n"))
	f.Add([]byte("GET / HTTP/1.1\r\nHost:0\r\n :\r\n\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ParseRequest(data)
		if err != nil {
			return
		}
		if contentLengths(data) > 1 {
			t.Fatalf("accepted a request with duplicate content-length:\n%q", data)
		}
		if len(got.Headers) > maxHeaderCount || len(got.Body) > maxBodyBytes {
			t.Fatalf("accepted a request beyond the parser limits: %d headers, %d body bytes",
				len(got.Headers), len(got.Body))
		}
		re, err := got.Marshal()
		if err != nil {
			return // header values with colons etc. may not re-marshal; fine
		}
		if _, err := ParseRequest(re); err != nil {
			t.Fatalf("re-marshaled request rejected: %v", err)
		}
	})
}

// FuzzParseResponse: never panic on arbitrary bytes.
func FuzzParseResponse(f *testing.F) {
	raw, err := MarshalResponse(200, "OK", nil, []byte("x"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 1\r\nContent-Length: 1\r\n\r\nx"))
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Length: 99999999\r\n\r\n"))
	f.Add([]byte("HTTP/1.1 100 Content-LengthContent-Length\r\n\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ParseResponse(data)
		if err != nil {
			return
		}
		if contentLengths(data) > 1 {
			t.Fatalf("accepted a response with duplicate content-length:\n%q", data)
		}
		if len(got.Headers) > maxHeaderCount || len(got.Body) > maxBodyBytes {
			t.Fatalf("accepted a response beyond the parser limits: %d headers, %d body bytes",
				len(got.Headers), len(got.Body))
		}
	})
}
