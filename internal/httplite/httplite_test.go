package httplite

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"testing"
	"testing/quick"
)

func TestRequestRoundTrip(t *testing.T) {
	req := &Request{
		Method: "POST",
		Path:   "/v2/devices/hub-001/updates",
		Host:   "api.m2x.att.com",
		Headers: map[string]string{
			"X-M2X-KEY":    "0123456789abcdef",
			"Content-Type": "application/json",
		},
		Body: []byte(`{"values":[1,2,3]}`),
	}
	raw, err := req.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := ParseRequest(raw)
	if err != nil {
		t.Fatalf("ParseRequest: %v", err)
	}
	if got.Method != req.Method || got.Path != req.Path || got.Host != req.Host {
		t.Errorf("parsed %+v", got)
	}
	if got.Headers["X-M2X-KEY"] != "0123456789abcdef" {
		t.Errorf("headers = %v", got.Headers)
	}
	if !bytes.Equal(got.Body, req.Body) {
		t.Errorf("body = %q", got.Body)
	}
}

// TestInteropWithStdlib: the stdlib's strict parser must accept our output.
func TestInteropWithStdlib(t *testing.T) {
	req := &Request{
		Method:  "POST",
		Path:    "/upload",
		Host:    "content.dropboxapi.com",
		Headers: map[string]string{"Content-Type": "application/octet-stream"},
		Body:    []byte("blockdata"),
	}
	raw, err := req.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	std, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(raw)))
	if err != nil {
		t.Fatalf("stdlib rejects our request: %v", err)
	}
	if std.Method != "POST" || std.URL.Path != "/upload" || std.Host != "content.dropboxapi.com" {
		t.Errorf("stdlib parsed %v %v %v", std.Method, std.URL, std.Host)
	}
	body, err := io.ReadAll(std.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "blockdata" {
		t.Errorf("stdlib body = %q", body)
	}
}

func TestResponseInteropWithStdlib(t *testing.T) {
	raw, err := MarshalResponse(202, "Accepted", map[string]string{"X-Request-Id": "r1"}, []byte(`{"status":"accepted"}`))
	if err != nil {
		t.Fatal(err)
	}
	std, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(raw)), nil)
	if err != nil {
		t.Fatalf("stdlib rejects our response: %v", err)
	}
	if std.StatusCode != 202 {
		t.Errorf("stdlib status = %d", std.StatusCode)
	}
	ours, err := ParseResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if ours.Status != 202 || ours.Reason != "Accepted" || ours.Headers["X-Request-Id"] != "r1" {
		t.Errorf("parsed %+v", ours)
	}
	if string(ours.Body) != `{"status":"accepted"}` {
		t.Errorf("body = %q", ours.Body)
	}
}

func TestMarshalValidation(t *testing.T) {
	cases := []Request{
		{Method: "BREW", Path: "/", Host: "h"},
		{Method: "GET", Path: "nope", Host: "h"},
		{Method: "GET", Path: "/", Host: ""},
		{Method: "GET", Path: "/", Host: "h", Headers: map[string]string{"Bad\r\nHeader": "v"}},
		{Method: "GET", Path: "/", Host: "h", Headers: map[string]string{"K": "v\r\nX: y"}},
		{Method: "GET", Path: "/", Host: "h", Headers: map[string]string{"": "v"}},
		{Method: "GET", Path: "/", Host: "h", Headers: map[string]string{" ": "v"}},
	}
	for i, r := range cases {
		if _, err := r.Marshal(); !errors.Is(err, ErrMalformed) {
			t.Errorf("case %d: %v, want ErrMalformed", i, err)
		}
	}
}

func TestHostAndContentLengthAreDerived(t *testing.T) {
	req := &Request{
		Method: "POST", Path: "/", Host: "real-host",
		Headers: map[string]string{"Host": "spoofed", "Content-Length": "999"},
		Body:    []byte("ab"),
	}
	raw, err := req.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("spoofed")) || bytes.Contains(raw, []byte("999")) {
		t.Errorf("user-supplied Host/Content-Length leaked:\n%s", raw)
	}
	if !bytes.Contains(raw, []byte("Content-Length: 2\r\n")) {
		t.Errorf("derived content-length missing:\n%s", raw)
	}
}

func TestParseErrors(t *testing.T) {
	bad := [][]byte{
		[]byte("no terminator"),
		[]byte("GET / HTTP/1.0\r\nHost: h\r\n\r\n"),
		[]byte("GET /\r\nHost: h\r\n\r\n"),
		[]byte("GET / HTTP/1.1\r\nNoColonHere\r\n\r\n"),
		[]byte("GET / HTTP/1.1\r\n\r\n"), // missing host
		[]byte("POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 10\r\n\r\nshort"),
		[]byte("POST / HTTP/1.1\r\nHost: h\r\nContent-Length: -1\r\n\r\n"),
		[]byte("GET / HTTP/1.1\r\nHost:0\r\n :\r\n\r\n"), // blank header name
	}
	for i, raw := range bad {
		if _, err := ParseRequest(raw); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	badResp := [][]byte{
		[]byte("HTTP/1.1\r\n\r\n"),
		[]byte("HTTP/1.1 999x OK\r\n\r\n"),
		[]byte("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nab"),
		[]byte("HTTP/1.1 200 OK\r\n\t: x\r\n\r\n"), // blank header name
	}
	for i, raw := range badResp {
		if _, err := ParseResponse(raw); err == nil {
			t.Errorf("response case %d accepted", i)
		}
	}
}

// Server-hardening limits: header count, body size, and smuggling-shaped
// duplicate Content-Length are all rejected, on both message kinds.
func TestParseLimits(t *testing.T) {
	var manyHeaders bytes.Buffer
	manyHeaders.WriteString("GET / HTTP/1.1\r\nHost: h\r\n")
	for i := 0; i < maxHeaderCount+1; i++ {
		fmt.Fprintf(&manyHeaders, "X-H%d: v\r\n", i)
	}
	manyHeaders.WriteString("\r\n")
	if _, err := ParseRequest(manyHeaders.Bytes()); !errors.Is(err, ErrTooLarge) {
		t.Errorf("header flood: %v, want ErrTooLarge", err)
	}

	huge := fmt.Sprintf("POST / HTTP/1.1\r\nHost: h\r\nContent-Length: %d\r\n\r\n", maxBodyBytes+1)
	if _, err := ParseRequest([]byte(huge)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized body declaration: %v, want ErrTooLarge", err)
	}

	smuggled := []byte("POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 2\r\nContent-Length: 4\r\n\r\nabcd")
	if _, err := ParseRequest(smuggled); !errors.Is(err, ErrMalformed) {
		t.Errorf("duplicate content-length: %v, want ErrMalformed", err)
	}
	// Even two agreeing values are rejected: the point is one parser, one rule.
	agreeing := []byte("POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nab")
	if _, err := ParseRequest(agreeing); !errors.Is(err, ErrMalformed) {
		t.Errorf("agreeing duplicate content-length: %v, want ErrMalformed", err)
	}

	respDup := []byte("HTTP/1.1 200 OK\r\nContent-Length: 1\r\nContent-Length: 1\r\n\r\nx")
	if _, err := ParseResponse(respDup); !errors.Is(err, ErrMalformed) {
		t.Errorf("response duplicate content-length: %v, want ErrMalformed", err)
	}
	respHuge := fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", maxBodyBytes+1)
	if _, err := ParseResponse([]byte(respHuge)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("response oversized body: %v, want ErrTooLarge", err)
	}

	var respFlood bytes.Buffer
	respFlood.WriteString("HTTP/1.1 200 OK\r\n")
	for i := 0; i < maxHeaderCount+1; i++ {
		fmt.Fprintf(&respFlood, "X-H%d: v\r\n", i)
	}
	respFlood.WriteString("\r\n")
	if _, err := ParseResponse(respFlood.Bytes()); !errors.Is(err, ErrTooLarge) {
		t.Errorf("response header flood: %v, want ErrTooLarge", err)
	}
}

func TestMarshalResponseValidation(t *testing.T) {
	if _, err := MarshalResponse(99, "x", nil, nil); !errors.Is(err, ErrMalformed) {
		t.Errorf("status 99: %v", err)
	}
}

// Property: Marshal -> ParseRequest is the identity on well-formed requests,
// and the parser never panics on arbitrary bytes.
func TestPropertyRequestRoundTrip(t *testing.T) {
	f := func(body []byte, key uint32) bool {
		req := &Request{
			Method:  "POST",
			Path:    "/data",
			Host:    "cloud.example",
			Headers: map[string]string{"X-Key": "k"},
			Body:    body,
		}
		raw, err := req.Marshal()
		if err != nil {
			return false
		}
		got, err := ParseRequest(raw)
		if err != nil {
			return false
		}
		return bytes.Equal(got.Body, body)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	robust := func(raw []byte) bool {
		_, _ = ParseRequest(raw)  //nolint:errcheck // exercising for panics
		_, _ = ParseResponse(raw) //nolint:errcheck // exercising for panics
		return true
	}
	if err := quick.Check(robust, nil); err != nil {
		t.Error(err)
	}
}
