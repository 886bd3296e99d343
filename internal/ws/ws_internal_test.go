package ws

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math/rand"
	"net"
	"testing"
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
