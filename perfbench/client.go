package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
)

// wireRequest renders one POST as the bytes an HTTP/1.1 client sends.
func wireRequest(query string, body []byte) []byte {
	head := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/octet-stream\r\nContent-Length: %d\r\n\r\n", query, len(body))
	return append([]byte(head), body...)
}

// httpConn is one keep-alive HTTP/1.1 client connection.  It writes
// prerendered requests and parses responses in place, so the load
// generator adds next to no garbage to the heap it shares with the
// server, and its own CPU cost per request stays small next to the
// server's.
type httpConn struct {
	c  net.Conn
	br *bufio.Reader
}

func dialHTTP(addr string) (*httpConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &httpConn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (h *httpConn) Close() error { return h.c.Close() }

// response is one parsed response; body aliases the caller's buffer.
type response struct {
	status int
	trace  uint64
	body   []byte
}

var errMalformed = errors.New("malformed HTTP response")

// roundTrip sends req and reads the whole response, reusing buf for the
// body.  After an error the connection is unusable.
func (h *httpConn) roundTrip(req, buf []byte) (response, error) {
	var resp response
	if _, err := h.c.Write(req); err != nil {
		return resp, err
	}
	line, err := h.br.ReadSlice('\n')
	if err != nil {
		return resp, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return resp, errMalformed
	}
	resp.status = atoi(line[9:12])
	length, chunked := -1, false
	for {
		line, err = h.br.ReadSlice('\n')
		if err != nil {
			return resp, err
		}
		if len(line) <= 2 {
			break
		}
		name, value, _ := bytes.Cut(bytes.TrimRight(line, "\r\n"), []byte(": "))
		switch string(name) {
		case "Content-Length":
			length = atoi(value)
		case "Transfer-Encoding":
			chunked = string(value) == "chunked"
		case "X-Helium-Trace":
			resp.trace, _ = strconv.ParseUint(string(value), 16, 64)
		}
	}
	if !chunked {
		if length < 0 {
			return resp, errMalformed
		}
		resp.body, err = readN(h.br, buf[:0], length)
		return resp, err
	}
	resp.body = buf[:0]
	for {
		line, err = h.br.ReadSlice('\n')
		if err != nil {
			return resp, err
		}
		n, err := strconv.ParseUint(string(bytes.TrimRight(line, "\r\n")), 16, 32)
		if err != nil {
			return resp, errMalformed
		}
		if resp.body, err = readN(h.br, resp.body, int(n)); err != nil {
			return resp, err
		}
		if _, err := h.br.Discard(2); err != nil { // the chunk's CRLF
			return resp, err
		}
		if n == 0 {
			return resp, nil
		}
	}
}

// readN appends exactly n bytes from r to buf.
func readN(r io.Reader, buf []byte, n int) ([]byte, error) {
	start := len(buf)
	buf = append(buf, make([]byte, n)...)
	_, err := io.ReadFull(r, buf[start:])
	return buf, err
}

// atoi parses a non-negative decimal, or returns -1.
func atoi(b []byte) int {
	n, err := strconv.Atoi(string(bytes.TrimSpace(b)))
	if err != nil || n < 0 {
		return -1
	}
	return n
}
