// Package ws is a minimal RFC 6455 WebSocket implementation over the
// standard library — just enough protocol for the streaming-session tier:
// whole text messages, close/ping/pong control frames, client-side masking,
// and both ends of the handshake (Accept for servers on an http.Hijacker,
// Dial for clients and the proxy's shard leg). Deliberately out of scope:
// fragmentation, extensions/compression, and subprotocol negotiation — a
// camera session exchanges self-contained JSON messages, so none of them
// buy anything here, and no third-party dependency is worth the surface.
package ws

import (
	"bufio"
	"crypto/rand"
	"crypto/sha1"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Frame opcodes (RFC 6455 §5.2).
const (
	opContinuation = 0x0
	opText         = 0x1
	opBinary       = 0x2
	opClose        = 0x8
	opPing         = 0x9
	opPong         = 0xA
)

// acceptGUID is the fixed key-transformation GUID of the handshake
// (RFC 6455 §1.3).
const acceptGUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

// DefaultMaxMessage bounds one message's payload — matched to the HTTP
// tier's 64MB body cap so a streamed frame can be exactly as large as a
// POSTed one, and no larger.
const DefaultMaxMessage = 64 << 20

// ErrPeerClosed is returned by ReadMessage when the peer sent a close
// frame: the orderly end of a connection, not a transport failure.
var ErrPeerClosed = errors.New("ws: peer closed connection")

// ErrTooLarge is returned by ReadMessage when a frame announces a payload
// beyond the message size bound.
var ErrTooLarge = errors.New("ws: message exceeds size limit")

// HandshakeError is returned by Dial when the server answered the upgrade
// with a plain HTTP status instead of 101 — e.g. the session tier's
// 503 + Retry-After when it is at capacity. The body (bounded) and the
// Retry-After header ride along so the caller can honor the backoff.
type HandshakeError struct {
	StatusCode int
	Status     string
	RetryAfter string
	Body       []byte
}

func (e *HandshakeError) Error() string {
	return fmt.Sprintf("ws: handshake rejected: %s", e.Status)
}

// Conn is one WebSocket connection. ReadMessage must be called from a
// single goroutine; WriteMessage/WriteClose are safe for concurrent use
// (serialized on an internal mutex), which is what lets a session's worker,
// its reader's in-band rejects, and the lifecycle's bye message share one
// connection.
type Conn struct {
	nc     net.Conn
	br     *bufio.Reader
	wmu    sync.Mutex
	client bool // client side masks outgoing frames (RFC 6455 §5.3)
	maxMsg int64
}

// acceptKey computes the Sec-WebSocket-Accept value for a client key.
func acceptKey(key string) string {
	h := sha1.Sum([]byte(key + acceptGUID))
	return base64.StdEncoding.EncodeToString(h[:])
}

// headerHasToken reports whether a comma-separated header contains the
// token (case-insensitive) — "Connection: keep-alive, Upgrade" must match.
// Only spaces and tabs around a token are skipped (RFC 7230 §3.2.3).
func headerHasToken(h http.Header, name, token string) bool {
	for _, v := range h.Values(name) {
		for _, t := range strings.Split(v, ",") {
			if strings.EqualFold(strings.Trim(t, " \t"), token) {
				return true
			}
		}
	}
	return false
}

// IsUpgrade reports whether the request asks for a WebSocket upgrade —
// the cheap pre-check a handler runs before spending anything on a request
// that wanted plain HTTP.
func IsUpgrade(r *http.Request) bool {
	return headerHasToken(r.Header, "Connection", "upgrade") &&
		headerHasToken(r.Header, "Upgrade", "websocket")
}

// Accept upgrades an HTTP request to a WebSocket connection. Validation
// errors are returned BEFORE the connection is hijacked, so the caller can
// still answer them with an ordinary HTTP error response; once Accept
// returns a Conn the HTTP exchange is over and the socket belongs to the
// caller (close it via Conn.Close).
func Accept(w http.ResponseWriter, r *http.Request) (*Conn, error) {
	if r.Method != http.MethodGet {
		return nil, fmt.Errorf("ws: handshake requires GET, got %s", r.Method)
	}
	if !IsUpgrade(r) {
		return nil, errors.New("ws: not a websocket upgrade request")
	}
	if v := r.Header.Get("Sec-WebSocket-Version"); v != "13" {
		return nil, fmt.Errorf("ws: unsupported websocket version %q (want 13)", v)
	}
	key := r.Header.Get("Sec-WebSocket-Key")
	if nonce, err := base64.StdEncoding.DecodeString(key); err != nil || len(nonce) != 16 {
		return nil, errors.New("ws: Sec-WebSocket-Key is not a base64 16-byte nonce")
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		return nil, errors.New("ws: response writer does not support hijacking")
	}
	nc, rw, err := hj.Hijack()
	if err != nil {
		return nil, fmt.Errorf("ws: hijack: %w", err)
	}
	resp := "HTTP/1.1 101 Switching Protocols\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Accept: " + acceptKey(key) + "\r\n\r\n"
	if _, err := rw.WriteString(resp); err != nil {
		nc.Close()
		return nil, fmt.Errorf("ws: write handshake: %w", err)
	}
	if err := rw.Flush(); err != nil {
		nc.Close()
		return nil, fmt.Errorf("ws: flush handshake: %w", err)
	}
	return &Conn{nc: nc, br: rw.Reader, maxMsg: DefaultMaxMessage}, nil
}

// Dial opens a client WebSocket connection to host:port addr at the given
// request path (query string included). Extra headers (camera identity,
// model selection, deadline budget) are sent with the handshake. A non-101
// answer is returned as *HandshakeError with the status, bounded body and
// Retry-After preserved. timeout bounds the dial AND the handshake
// round-trip; 0 means no bound.
func Dial(addr, path string, hdr http.Header, timeout time.Duration) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if timeout > 0 {
		_ = nc.SetDeadline(time.Now().Add(timeout))
	}
	keyRaw := make([]byte, 16)
	if _, err := rand.Read(keyRaw); err != nil {
		nc.Close()
		return nil, fmt.Errorf("ws: key: %w", err)
	}
	key := base64.StdEncoding.EncodeToString(keyRaw)
	var b strings.Builder
	fmt.Fprintf(&b, "GET %s HTTP/1.1\r\nHost: %s\r\n", path, addr)
	b.WriteString("Upgrade: websocket\r\nConnection: Upgrade\r\n")
	fmt.Fprintf(&b, "Sec-WebSocket-Key: %s\r\nSec-WebSocket-Version: 13\r\n", key)
	for name, vals := range hdr {
		for _, v := range vals {
			fmt.Fprintf(&b, "%s: %s\r\n", name, v)
		}
	}
	b.WriteString("\r\n")
	if _, err := io.WriteString(nc, b.String()); err != nil {
		nc.Close()
		return nil, fmt.Errorf("ws: write handshake: %w", err)
	}
	br := bufio.NewReader(nc)
	resp, err := http.ReadResponse(br, &http.Request{Method: http.MethodGet})
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("ws: read handshake response: %w", err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		nc.Close()
		return nil, &HandshakeError{
			StatusCode: resp.StatusCode,
			Status:     resp.Status,
			RetryAfter: resp.Header.Get("Retry-After"),
			Body:       body,
		}
	}
	if got := resp.Header.Get("Sec-WebSocket-Accept"); got != acceptKey(key) {
		nc.Close()
		return nil, fmt.Errorf("ws: bad Sec-WebSocket-Accept %q", got)
	}
	_ = nc.SetDeadline(time.Time{})
	return &Conn{nc: nc, br: br, client: true, maxMsg: DefaultMaxMessage}, nil
}

// ReadMessage returns the next complete text/binary message payload,
// transparently answering pings and skipping pongs. A peer close frame is
// echoed and surfaced as ErrPeerClosed. Must be called from one goroutine.
func (c *Conn) ReadMessage() ([]byte, error) {
	for {
		var hdr [2]byte
		if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
			return nil, err
		}
		fin := hdr[0]&0x80 != 0
		if hdr[0]&0x70 != 0 {
			return nil, errors.New("ws: reserved bits set (extensions not negotiated)")
		}
		op := hdr[0] & 0x0F
		masked := hdr[1]&0x80 != 0
		n := int64(hdr[1] & 0x7F)
		switch n {
		case 126:
			var ext [2]byte
			if _, err := io.ReadFull(c.br, ext[:]); err != nil {
				return nil, err
			}
			n = int64(binary.BigEndian.Uint16(ext[:]))
		case 127:
			var ext [8]byte
			if _, err := io.ReadFull(c.br, ext[:]); err != nil {
				return nil, err
			}
			v := binary.BigEndian.Uint64(ext[:])
			if v > uint64(c.maxMsg) {
				return nil, ErrTooLarge
			}
			n = int64(v)
		}
		if n > c.maxMsg {
			return nil, ErrTooLarge
		}
		var maskKey [4]byte
		if masked {
			if _, err := io.ReadFull(c.br, maskKey[:]); err != nil {
				return nil, err
			}
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(c.br, payload); err != nil {
			return nil, err
		}
		if masked {
			mask(payload, maskKey)
		}
		switch op {
		case opText, opBinary:
			if !fin {
				return nil, errors.New("ws: fragmented messages not supported")
			}
			return payload, nil
		case opPing:
			// Best-effort pong; a write failure surfaces on the next write.
			_ = c.writeFrame(opPong, payload)
		case opPong:
			// Unsolicited pongs are legal and ignored.
		case opClose:
			_ = c.writeFrame(opClose, payload)
			return nil, ErrPeerClosed
		case opContinuation:
			return nil, errors.New("ws: unexpected continuation frame")
		default:
			return nil, fmt.Errorf("ws: unknown opcode %#x", op)
		}
	}
}

// mask XORs payload with the repeating four-byte key (RFC 6455 §5.3; the
// operation is its own inverse) eight bytes a step: a camera frame is
// 280kB of it in each direction.
func mask(payload []byte, key [4]byte) {
	k := uint64(binary.LittleEndian.Uint32(key[:]))
	k |= k << 32
	for ; len(payload) >= 8; payload = payload[8:] {
		binary.LittleEndian.PutUint64(payload, binary.LittleEndian.Uint64(payload)^k)
	}
	for i := range payload {
		payload[i] ^= key[i&3]
	}
}

// WriteMessage sends one complete text message. Safe for concurrent use.
func (c *Conn) WriteMessage(payload []byte) error {
	return c.writeFrame(opText, payload)
}

// WriteClose sends a close frame with the given status code and reason.
// Safe for concurrent use; errors are returned but typically ignorable —
// the peer may already be gone.
func (c *Conn) WriteClose(code uint16, reason string) error {
	payload := make([]byte, 2+len(reason))
	binary.BigEndian.PutUint16(payload, code)
	copy(payload[2:], reason)
	return c.writeFrame(opClose, payload)
}

// writeFrame emits one unfragmented frame, masking on the client side. The
// header and payload are written as a single buffer so concurrent writers
// (serialized on wmu) can never interleave partial frames.
func (c *Conn) writeFrame(op byte, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	n := len(payload)
	buf := make([]byte, 0, 14+n)
	buf = append(buf, 0x80|op)
	maskBit := byte(0)
	if c.client {
		maskBit = 0x80
	}
	switch {
	case n < 126:
		buf = append(buf, maskBit|byte(n))
	case n < 1<<16:
		buf = append(buf, maskBit|126, byte(n>>8), byte(n))
	default:
		buf = append(buf, maskBit|127)
		var ext [8]byte
		binary.BigEndian.PutUint64(ext[:], uint64(n))
		buf = append(buf, ext[:]...)
	}
	if c.client {
		var key [4]byte
		if _, err := rand.Read(key[:]); err != nil {
			return fmt.Errorf("ws: mask key: %w", err)
		}
		buf = append(buf, key[:]...)
		start := len(buf)
		buf = append(buf, payload...)
		mask(buf[start:], key)
	} else {
		buf = append(buf, payload...)
	}
	_, err := c.nc.Write(buf)
	return err
}

// SetReadDeadline bounds the next ReadMessage — the lever idle eviction
// uses to kick a reader goroutine parked on a silent connection.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.nc.SetReadDeadline(t) }

// Close tears down the underlying connection. Safe to call more than once
// and concurrently with reads/writes (they surface errors).
func (c *Conn) Close() error { return c.nc.Close() }
