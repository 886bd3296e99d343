// Command client walks the detection service's API against a running
// dronet-serve, or a dronet-proxy in front of shards: one JSON POST /detect,
// one /stream WebSocket session (hello, one frame, its result) and GET
// /healthz.
//
// Usage:
//
//	go run ./cmd/dronet-serve -addr 127.0.0.1:8080 -size 96 -scale 0.25 &
//	go run ./examples/client -url http://127.0.0.1:8080 -size 96
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"time"

	"repro/internal/dataset"
	"repro/internal/pipeline"
	"repro/internal/serve"
	"repro/internal/ws"
)

func main() {
	log.SetPrefix("client: ")
	base := flag.String("url", "http://127.0.0.1:8080", "base URL of a running dronet-serve or dronet-proxy")
	size := flag.Int("size", 96, "frame side in pixels (the served model's input size)")
	flag.Parse()
	if err := walk(os.Stdout, *base, *size); err != nil {
		log.Fatal(err)
	}
}

// walk sends one synthetic frame to the server at base on POST /detect and
// on a /stream session, then reads /healthz; it reports each answer on w.
func walk(w io.Writer, base string, size int) error {
	f, _ := pipeline.NewSimCamera(dataset.DefaultConfig(size), 1, 42).Next()
	body, err := json.Marshal(serve.StreamFrame{Seq: 1, Width: f.Image.W, Height: f.Image.H, Pixels: f.Image.Pix})
	if err != nil {
		return err
	}

	// 1. One frame as planar float pixels in [0,1].
	resp, err := http.Post(base+"/detect", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var det serve.DetectResponse
	if err := decode(resp, &det); err != nil {
		return err
	}
	fmt.Fprintf(w, "detect: %d detections from model %q (batch %d)\n", len(det.Detections), det.Model, det.BatchSize)

	// 2. A session: the server's hello, then one result per frame sent.
	u, err := url.Parse(base)
	if err != nil {
		return err
	}
	conn, err := ws.Dial(u.Host, "/stream?camera=example", nil, 10*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	var hello, result serve.StreamMessage
	err = readMsg(conn, &hello, serve.MsgHello)
	if err == nil {
		err = conn.WriteMessage(body)
	}
	if err == nil {
		err = readMsg(conn, &result, serve.MsgResult)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "stream: session %s, frame %d: %d detections, %d tracks\n",
		hello.Session, result.Frame, len(result.Detections), len(result.Tracks))
	_ = conn.WriteClose(1000, "done")

	// 3. Health: status, default model and the precision it runs at.
	if resp, err = http.Get(base + "/healthz"); err != nil {
		return err
	}
	var health map[string]any
	if err := decode(resp, &health); err != nil {
		return err
	}
	fmt.Fprintf(w, "healthz: %v, default model %q at %v\n", health["status"], health["default_model"], health["precision"])
	return nil
}

// decode reads a 200 response's JSON body into v.
func decode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %s", resp.Request.Method, resp.Request.URL.Path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// readMsg reads the next session message into msg and checks its type.
func readMsg(conn *ws.Conn, msg *serve.StreamMessage, want string) error {
	raw, err := conn.ReadMessage()
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, msg); err != nil {
		return err
	}
	if msg.Type != want {
		return fmt.Errorf("stream: got %q (%s), want %q", msg.Type, msg.Error, want)
	}
	return nil
}
