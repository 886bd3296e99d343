package cluster_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
)

// stubShard serves detect on /detect and a healthy /healthz.
func stubShard(t testing.TB, detect http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("/detect", detect)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func addrOf(ts *httptest.Server) string { return strings.TrimPrefix(ts.URL, "http://") }

// hashEcho answers with the SHA-256 of the body it read, the
// Content-Length it was sent and the X-Probe header.
func hashEcho(w http.ResponseWriter, r *http.Request) {
	h := sha256.New()
	if _, err := io.Copy(h, r.Body); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fmt.Fprintf(w, "%x %d %s", h.Sum(nil), r.ContentLength, r.Header.Get("X-Probe"))
}

// lateTransport answers every POST to the busy shard 429 without reading
// the body, keeping it by X-Probe for the test to read after the response
// has reached the client — what a transport that closes the body after Do
// returns may do. Every other request goes to the real transport.
type lateTransport struct {
	busy string
	next http.RoundTripper
	mu   sync.Mutex
	kept map[string]io.ReadCloser
}

func (l *lateTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method != http.MethodPost || req.URL.Host != l.busy {
		return l.next.RoundTrip(req)
	}
	l.mu.Lock()
	l.kept[req.Header.Get("X-Probe")] = req.Body
	l.mu.Unlock()
	return &http.Response{
		StatusCode: http.StatusTooManyRequests, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{"Retry-After": {"1"}}, Body: io.NopCloser(strings.NewReader("busy")),
		ContentLength: 4, Request: req,
	}, nil
}

// readKept reads and closes the body kept for camera and returns its hash
// as hashEcho would answer it.
func (l *lateTransport) readKept(camera string) (string, error) {
	l.mu.Lock()
	body := l.kept[camera]
	delete(l.kept, camera)
	l.mu.Unlock()
	if body == nil {
		return "", fmt.Errorf("no body kept for %s", camera)
	}
	defer body.Close()
	raw, err := io.ReadAll(body)
	return wantEcho(raw, camera), err
}

// forwardOnce posts body for camera through the proxy at base and returns
// the status and the response body.
func forwardOnce(t testing.TB, base, camera string, body []byte) (int, string) {
	req, err := http.NewRequest(http.MethodPost, base+"/detect", bytes.NewReader(body))
	if err != nil {
		t.Error(err)
		return 0, ""
	}
	req.Header.Set("X-Camera-ID", camera)
	req.Header.Set("X-Probe", camera)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Error(err)
		return 0, ""
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
	}
	return resp.StatusCode, string(raw)
}

// wantEcho is what hashEcho answers for body sent by forwardOnce.
func wantEcho(body []byte, camera string) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:]) + " " + strconv.Itoa(len(body)) + " " + camera
}

// TestProxyForwardBodyNeverReusedEarly pins the pooled forward body's
// lifetime rule: a buffer goes back to the pool only after the handler and
// every attempt's transport are done with it. One shard answers 429
// without reading the body, which its transport reads only after the
// answer has reached the client; the other echoes a hash of the body it
// read. Hundreds of concurrent forwards carry distinct bodies, and every
// body either shard read must be its own request's. With the forward fault
// armed on the first shard, the failover must deliver the identical bytes,
// Content-Length and headers to the second.
func TestProxyForwardBodyNeverReusedEarly(t *testing.T) {
	busy := addrOf(stubShard(t, http.NotFound)) // rt answers its /detect

	echo := addrOf(stubShard(t, hashEcho))
	rt := &lateTransport{busy: busy, next: &http.Transport{}, kept: map[string]io.ReadCloser{}}
	p, err := cluster.NewProxy(cluster.ProxyConfig{
		Shards: []string{busy, echo}, HealthInterval: time.Hour, MaxInflight: 64,
		Client: &http.Client{Transport: rt},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	ts := httptest.NewServer(p)
	t.Cleanup(ts.Close)

	const workers, perWorker = 16, 24
	var wg sync.WaitGroup
	var mu sync.Mutex
	statuses := map[int]int{}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				camera := fmt.Sprintf("cam-%d-%d", w, k)
				// Bodies of different lengths and contents, large enough
				// that the transport writes them in several pieces.
				body := bytes.Repeat([]byte(camera+";"), 2000+97*k+w)
				want := wantEcho(body, camera)
				code, got := forwardOnce(t, ts.URL, camera, body)
				if code == http.StatusTooManyRequests {
					var err error
					if got, err = rt.readKept(camera); err != nil {
						t.Error(err)
					}
				}
				mu.Lock()
				statuses[code]++
				mu.Unlock()
				if got != want {
					t.Errorf("camera %s (status %d): shard read %q, want %q", camera, code, got, want)
				}
			}
		}(w)
	}
	wg.Wait()
	if statuses[http.StatusOK] == 0 || statuses[http.StatusTooManyRequests] == 0 || len(statuses) != 2 {
		t.Fatalf("statuses %v: want both shards' answers (200 and 429) and nothing else", statuses)
	}

	// Failover: the first attempt at the busy shard fails in the proxy,
	// and the echo shard must receive the request unchanged.
	if err := faults.Arm("cluster.forward#" + busy + "=error"); err != nil {
		t.Fatal(err)
	}
	defer faults.Disarm()
	for k := 0; k < 8; k++ {
		camera := fmt.Sprintf("failover-%d", k)
		body := bytes.Repeat([]byte(camera+"|"), 5000+k)
		if code, got := forwardOnce(t, ts.URL, camera, body); code != http.StatusOK || got != wantEcho(body, camera) {
			t.Fatalf("failover %s: status %d, shard read %q, want %q", camera, code, got, wantEcho(body, camera))
		}
	}
	if code, got := forwardOnce(t, ts.URL, "empty", nil); code != http.StatusOK || got != wantEcho(nil, "empty") {
		t.Fatalf("empty body: status %d, shard read %q, want %q", code, got, wantEcho(nil, "empty"))
	}
}

// BenchmarkProxyForward is one /detect forward of a 96x96 JSON frame
// through the proxy's handler to a stub shard that drains the body; B/op
// is what the proxy allocates per request beyond the frame itself:
// go test -run '^$' -bench ProxyForward ./internal/cluster
func BenchmarkProxyForward(b *testing.B) {
	shard := stubShard(b, func(w http.ResponseWriter, r *http.Request) {
		n, _ := io.Copy(io.Discard, r.Body)
		fmt.Fprint(w, n)
	})
	p, err := cluster.NewProxy(cluster.ProxyConfig{Shards: []string{addrOf(shard)}, HealthInterval: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(p.Close)
	body := frameBody(b, testFrames(96, 1, 1)[0])
	want := strconv.Itoa(len(body))
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/detect", rd)
	req.Header.Set("X-Camera-ID", "cam0")
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		rec := httptest.NewRecorder()
		p.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || rec.Body.String() != want {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}
