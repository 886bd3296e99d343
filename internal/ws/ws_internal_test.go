package ws

import (
	"bufio"
	"bytes"
	"crypto/sha1"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestMaskMatchesBytewise holds the word-at-a-time mask to the byte loop it
// replaced, over every length around the eight-byte step and a camera
// frame's 280kB.
func TestMaskMatchesBytewise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lengths := []int{280 << 10, 280<<10 + 5}
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		var key [4]byte
		rng.Read(key[:])
		got := make([]byte, n)
		rng.Read(got)
		want := bytes.Clone(got)
		for i := range want {
			want[i] ^= key[i&3]
		}
		mask(got, key)
		if !bytes.Equal(got, want) {
			t.Errorf("length %d, key %x: word-wise mask differs from the byte loop", n, key)
		}
	}
}

// sinkConn is the write half of a connection whose peer never reads: pongs
// and close echoes go nowhere.
type sinkConn struct{ net.Conn }

func (sinkConn) Write(p []byte) (int, error) { return len(p), nil }

// testFrame encodes one frame. lenForm picks the length encoding (0 the
// shortest that fits, 126 or 127 to force the extended forms); claim, when
// positive, is the length announced in place of the payload's own.
func testFrame(first byte, masked bool, lenForm int, claim uint64, payload []byte) []byte {
	n := uint64(len(payload))
	if claim > 0 {
		n = claim
	}
	maskBit := byte(0)
	if masked {
		maskBit = 0x80
	}
	out := []byte{first}
	switch {
	case lenForm == 127 || n >= 1<<16:
		out = append(out, maskBit|127)
		out = binary.BigEndian.AppendUint64(out, n)
	case lenForm == 126 || n >= 126:
		out = append(out, maskBit|126)
		out = binary.BigEndian.AppendUint16(out, uint16(n))
	default:
		out = append(out, maskBit|byte(n))
	}
	if masked {
		key := [4]byte{0xde, 0xad, 0xbe, 0xef}
		out = append(out, key[:]...)
		payload = bytes.Clone(payload)
		mask(payload, key)
	}
	return append(out, payload...)
}

// FuzzReadMessage feeds arbitrary bytes to the frame reader a server runs
// on every client connection. It must never panic, must end (each call
// consumes input or fails), and must hand back no message above the size
// bound nor more payload than the wire carried.
func FuzzReadMessage(f *testing.F) {
	const fin = 0x80
	hello := []byte(`{"seq":1}`)
	long := bytes.Repeat([]byte("x"), 300)
	for _, seed := range [][]byte{
		testFrame(fin|opText, true, 0, 0, hello),
		testFrame(fin|opText, false, 0, 0, hello),
		testFrame(fin|opBinary, true, 126, 0, hello), // a short payload in the 16-bit form
		testFrame(fin|opText, true, 127, 0, hello),   // and in the 64-bit form
		testFrame(fin|opText, true, 0, 0, long),
		testFrame(fin|opText, true, 0, 0, nil),
		testFrame(fin|opText, true, 0, 0, hello)[:1],           // header cut short
		testFrame(fin|opText, true, 0, 0, long)[:3],            // extended length cut short
		testFrame(fin|opText, true, 0, 0, hello)[:4],           // mask key cut short
		testFrame(fin|opText, true, 0, 0, hello)[:9],           // payload cut short
		testFrame(fin|opText, true, 127, 1<<16+1, hello),       // one over the bound
		testFrame(fin|opText, true, 127, 1<<63, hello),         // length with the top bit set
		testFrame(fin|opText, true, 127, 1<<64-1, hello),       // and the largest there is
		testFrame(fin|opText, true, 126, 1<<16-1, hello),       // announces more than follows
		testFrame(opText, true, 0, 0, hello),                   // fragment start: refused
		testFrame(fin|opContinuation, true, 0, 0, hello),       // stray continuation: refused
		testFrame(fin|0x40|opText, true, 0, 0, hello),          // reserved bit
		testFrame(fin|0x3, true, 0, 0, hello),                  // unknown opcode
		testFrame(fin|opClose, true, 0, 0, []byte{0x03, 0xe8}), // close 1000
		testFrame(fin|opClose, true, 0, 0, nil),                // close without a code
		testFrame(fin|opPing, true, 126, 0, long),              // control frame over 125 bytes
		append(append(testFrame(fin|opPing, true, 0, 0, []byte("p")), testFrame(fin|opPong, true, 0, 0, nil)...),
			testFrame(fin|opText, true, 0, 0, hello)...), // control frames between data frames
		append(testFrame(fin|opText, true, 0, 0, hello), testFrame(fin|opClose, true, 0, 0, []byte{0x03, 0xe8})...),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, wire []byte) {
		c := &Conn{nc: sinkConn{}, br: bufio.NewReader(bytes.NewReader(wire)), maxMsg: 1 << 16}
		delivered := 0
		for calls := 0; ; calls++ {
			if calls > len(wire) {
				t.Fatalf("%d reads of %d bytes and no end", calls, len(wire))
			}
			msg, err := c.ReadMessage()
			if err != nil {
				if msg != nil {
					t.Fatalf("error %v came with a %d-byte message", err, len(msg))
				}
				return
			}
			if int64(len(msg)) > c.maxMsg {
				t.Fatalf("%d-byte message over the %d bound", len(msg), c.maxMsg)
			}
			if delivered += len(msg); delivered > len(wire) {
				t.Fatalf("%d payload bytes delivered from %d on the wire", delivered, len(wire))
			}
		}
	})
}

// recordConn is a hijacked connection that keeps what is written to it.
type recordConn struct {
	net.Conn
	w *bytes.Buffer
}

func (c recordConn) Write(p []byte) (int, error) { return c.w.Write(p) }
func (recordConn) Close() error                  { return nil }

// hijackRecorder is a ResponseWriter that can be hijacked; every byte
// written, before or after the hijack, lands in wrote.
type hijackRecorder struct {
	header http.Header
	wrote  bytes.Buffer
}

func (h *hijackRecorder) Header() http.Header         { return h.header }
func (h *hijackRecorder) Write(p []byte) (int, error) { return h.wrote.Write(p) }
func (h *hijackRecorder) WriteHeader(int)             {}
func (h *hijackRecorder) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	nc := recordConn{w: &h.wrote}
	return nc, bufio.NewReadWriter(bufio.NewReader(strings.NewReader("")), bufio.NewWriter(nc)), nil
}

// validUpgrade is the RFC 6455 §4.2.1 rule, stated independently of
// Accept: GET, "upgrade" among the Connection tokens, "websocket" among the
// Upgrade tokens, version 13 and a key that is the base64 of 16 bytes.
func validUpgrade(r *http.Request) bool {
	hasToken := func(name, token string) bool {
		for _, v := range r.Header.Values(name) {
			for _, t := range strings.Split(v, ",") {
				if strings.EqualFold(strings.Trim(t, " \t"), token) {
					return true
				}
			}
		}
		return false
	}
	nonce, err := base64.StdEncoding.DecodeString(r.Header.Get("Sec-WebSocket-Key"))
	return r.Method == "GET" && hasToken("Connection", "upgrade") && hasToken("Upgrade", "websocket") &&
		r.Header.Get("Sec-WebSocket-Version") == "13" && err == nil && len(nonce) == 16
}

// FuzzHandshake drives both ends of the upgrade with fuzzed bytes. Accept
// gets a request parsed from reqWire: it must not panic, must answer 101
// with the right Sec-WebSocket-Accept exactly when the request is a valid
// upgrade, and must write nothing when it refuses. Dial reads respWire from
// a loopback listener: it must not panic, every parseable non-101 answer
// must come back as a *HandshakeError with that status, its Retry-After and
// at most 4 kB of body, and nothing else may.
func FuzzHandshake(f *testing.F) {
	const key = "dGhlIHNhbXBsZSBub25jZQ==" // RFC 6455 §1.3's example nonce
	upgrade := func(method, conn, version, k string) []byte {
		return []byte(method + " /stream HTTP/1.1\r\nHost: shard\r\nUpgrade: websocket\r\nConnection: " + conn +
			"\r\nSec-WebSocket-Key: " + k + "\r\nSec-WebSocket-Version: " + version + "\r\n\r\n")
	}
	reqs := [][]byte{
		upgrade("GET", "Upgrade", "13", key),
		upgrade("GET", "keep-alive, Upgrade", "13", key),
		upgrade("POST", "Upgrade", "13", key),
		upgrade("GET", "keep-alive", "13", key),
		upgrade("GET", "Upgrade\u00a0", "13", key),
		upgrade("GET", "Upgrade", "8", key),
		upgrade("GET", "Upgrade", "13", ""),
		upgrade("GET", "Upgrade", "13", "c2hvcnQ="),
		[]byte("GET / HTTP/1.1\r\nHost: shard\r\n\r\n"),
		[]byte("garbage"),
	}
	resps := [][]byte{
		[]byte("HTTP/1.1 101 Switching Protocols\r\nUpgrade: websocket\r\nConnection: Upgrade\r\nSec-WebSocket-Accept: s3pPLMBiTxaQ9kYGzzhZRbK+xOo=\r\n\r\n"),
		[]byte("HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nContent-Length: 4\r\n\r\nbusy"),
		[]byte("HTTP/1.1 200 OK\r\nContent-Length: 5000\r\n\r\n" + strings.Repeat("x", 5000)),
		[]byte("HTTP/1.1 400 Bad Request\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nbad\r\n0\r\n\r\n"),
		[]byte("HTTP/1.1 404 Not Found\r\nContent-Length: 100\r\n\r\nshort"),
		[]byte("HTTP/1.1 999 Odd\r\n\r\n"),
		[]byte("HTTP/1.1 503"),
		[]byte("hello"),
		nil,
	}
	for i := range max(len(reqs), len(resps)) {
		f.Add(reqs[i%len(reqs)], resps[i%len(resps)])
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { ln.Close() })

	f.Fuzz(func(t *testing.T, reqWire, respWire []byte) {
		if r, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(reqWire))); err == nil {
			w := &hijackRecorder{header: http.Header{}}
			c, err := Accept(w, r)
			switch valid := validUpgrade(r); {
			case err != nil && valid:
				t.Fatalf("valid upgrade refused: %v", err)
			case err != nil && w.wrote.Len() > 0:
				t.Fatalf("refusal %v wrote %q", err, w.wrote.String())
			case err == nil && !valid:
				t.Fatalf("invalid upgrade %s %v accepted", r.Method, r.Header)
			case err == nil:
				resp, rerr := http.ReadResponse(bufio.NewReader(&w.wrote), r)
				sum := sha1.Sum([]byte(r.Header.Get("Sec-WebSocket-Key") + "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"))
				if rerr != nil || resp.StatusCode != http.StatusSwitchingProtocols ||
					resp.Header.Get("Sec-WebSocket-Accept") != base64.StdEncoding.EncodeToString(sum[:]) || c == nil {
					t.Fatalf("accepted upgrade answered %q", w.wrote.String())
				}
			}
		}

		want, perr := http.ReadResponse(bufio.NewReader(bytes.NewReader(respWire)), &http.Request{Method: http.MethodGet})
		done := make(chan struct{})
		deadline := time.Now().Add(5 * time.Second) // a failed dial must not leave the server leg waiting
		ln.(*net.TCPListener).SetDeadline(deadline)
		go func() {
			defer close(done)
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			defer nc.Close()
			nc.SetDeadline(deadline)
			if _, err := http.ReadRequest(bufio.NewReader(nc)); err == nil {
				nc.Write(respWire) // the client may hang up first; that is its business
			}
		}()
		c, err := Dial(ln.Addr().String(), "/stream", nil, 5*time.Second)
		<-done
		if c != nil {
			c.Close()
		}
		var he *HandshakeError
		isHE := errors.As(err, &he)
		switch {
		case perr == nil && want.StatusCode != http.StatusSwitchingProtocols:
			if !isHE || he.StatusCode != want.StatusCode || he.RetryAfter != want.Header.Get("Retry-After") {
				t.Fatalf("status %d answered %v, want a *HandshakeError with that status", want.StatusCode, err)
			}
			if len(he.Body) > 4096 {
				t.Fatalf("HandshakeError carries %d body bytes, over 4 kB", len(he.Body))
			}
		case isHE:
			t.Fatalf("%v from a response that is not a parseable non-101 (%v)", err, perr)
		}
		if perr == nil {
			io.Copy(io.Discard, want.Body)
		}
	})
}
