package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/ws"
)

// sample is one request as the client saw it. Answers are kept raw and
// checked against the oracle after the phase, off the generator's clock.
type sample struct {
	frame  int       // index into inputs.frames
	due    time.Time // paced phase: when the schedule wanted it sent; else the send time
	sent   time.Time
	done   time.Time // last response byte (the result message on a session)
	status int       // HTTP status or in-band code; 0 = transport error
	body   []byte
	shard  string // the proxy's X-Dronet-Shard label, when a proxy answered
}

// driver is a connected load generator for one fleet. Both phases return
// one sample per attempted request.
type driver interface {
	// one sends a single request and waits for its answer.
	one(frame int) sample
	// closed keeps every caller busy for d: each sends its next request when
	// the previous answer arrives.
	closed(d time.Duration) []sample
	// paced sends at the fixed rate for d whatever the answers do, timing
	// each request from the instant it was due.
	paced(d time.Duration, rate float64) []sample
	close()
}

// pacedWorkers bounds the requests the paced phase keeps in flight. It is
// well above what any workload holds at half its capacity, so arrivals stay
// independent of answers (an open loop); past it the generator runs late and
// client.late_p95_ms says so.
const pacedWorkers = 32

func newDriver(w *workload, addr string, in *inputs, conns int) (driver, error) {
	if w.codecs[0] == codecStream {
		return newStreamDriver(addr, in, conns)
	}
	return &httpDriver{
		client: &http.Client{
			Timeout:   10 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: pacedWorkers, DisableCompression: true},
		},
		base: "http://" + addr, in: in, callers: callersPerConn * conns, keys: w.cameraKeys,
	}, nil
}

// callersPerConn is how many closed-loop callers the HTTP workloads run per
// conn, and conns is one per core of the box. With one, two callers face two batch workers and the
// closed phase has two stable states: answers that return together are sent
// again together, batched, and run one after the other on one worker while
// the second idles; answers out of step run side by side. detect-compute
// flipped between 48 and 83 images/s from one second to the next. With two,
// every worker always has a request waiting and the phase measures capacity.
// The callers wait on sockets; they do not compete for the cores.
const callersPerConn = 2

// httpDriver posts pre-encoded bodies over keep-alive connections.
type httpDriver struct {
	client  *http.Client
	base    string
	in      *inputs
	callers int // closed phase: requests kept in flight
	keys    bool
	next    atomic.Int64 // request counter: phases continue the camera interleave
}

func (d *httpDriver) close() { d.client.CloseIdleConnections() }

func (d *httpDriver) one(frame int) sample { return d.post(d.base, frame, time.Time{}) }

func (d *httpDriver) post(base string, frame int, due time.Time) sample {
	f := &d.in.frames[frame%len(d.in.frames)]
	s := sample{frame: frame % len(d.in.frames), due: due}
	req, err := http.NewRequest(http.MethodPost, base+f.path, bytes.NewReader(f.body))
	if err != nil {
		return s
	}
	req.Header.Set("Content-Type", f.ctype)
	if d.keys {
		req.Header.Set("X-Camera-ID", f.camera)
	}
	s.sent = time.Now()
	if due.IsZero() {
		s.due = s.sent
	}
	resp, err := d.client.Do(req)
	if err == nil {
		s.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil {
			s.status, s.shard = resp.StatusCode, resp.Header.Get("X-Dronet-Shard")
		}
	}
	s.done = time.Now()
	return s
}

func (d *httpDriver) closed(dur time.Duration) []sample {
	end := time.Now().Add(dur)
	per := make([][]sample, d.callers)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				per[c] = append(per[c], d.post(d.base, int(d.next.Add(1)-1), time.Time{}))
			}
		}()
	}
	wg.Wait()
	return flatten(per)
}

func (d *httpDriver) paced(dur time.Duration, rate float64) []sample {
	type job struct {
		frame int
		due   time.Time
	}
	jobs := make(chan job) // unbuffered: a job waits only when every worker is busy
	per := make([][]sample, pacedWorkers)
	var wg sync.WaitGroup
	for i := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				per[i] = append(per[i], d.post(d.base, j.frame, j.due))
			}
		}()
	}
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		if due.Sub(start) >= dur {
			break
		}
		time.Sleep(time.Until(due))
		jobs <- job{int(d.next.Add(1) - 1), due}
	}
	close(jobs)
	wg.Wait()
	return flatten(per)
}

func flatten(per [][]sample) []sample {
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}

// sessionWindow is how many frames a session keeps in flight: the servers'
// default -session-inflight, so pipelining never trips the backlog reject.
const sessionWindow = 4

// streamDriver holds one GET /stream session per connection and pipelines
// StreamFrames over it. Session s replays camera s's panning sequence in
// order, so its server-side tracker sees continuous motion.
type streamDriver struct {
	in       *inputs
	sessions []*session
}

type session struct {
	conn     *ws.Conn
	frames   []int          // this camera's indices into inputs.frames, in sequence
	pos      int            // next frame of the sequence
	seq      int            // last sequence number written
	window   chan struct{}  // one token per frame in flight
	inflight sync.WaitGroup // the same frames, for drain
	readDone chan struct{}  // closed when the reader exits

	mu      sync.Mutex
	pending map[int]*sample // by seq
	dead    bool            // the reader is gone: nothing sent now will be answered
}

func newStreamDriver(addr string, in *inputs, conns int) (*streamDriver, error) {
	d := &streamDriver{in: in}
	for c := 0; c < conns; c++ {
		s, err := openSession(addr, in, c, conns)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("session %d: %w", c, err)
		}
		d.sessions = append(d.sessions, s)
	}
	return d, nil
}

// openSession dials camera c's session, reads the hello and starts the
// reader.
func openSession(addr string, in *inputs, c, conns int) (*session, error) {
	s := &session{window: make(chan struct{}, sessionWindow), pending: map[int]*sample{}, readDone: make(chan struct{})}
	for i := c; i < len(in.frames); i += conns {
		s.frames = append(s.frames, i)
	}
	conn, err := ws.Dial(addr, in.frames[s.frames[0]].path, nil, 5*time.Second)
	if err != nil {
		return nil, err
	}
	raw, err := conn.ReadMessage()
	var hello serve.StreamMessage
	if err == nil {
		err = json.Unmarshal(raw, &hello)
	}
	if err != nil || hello.Type != serve.MsgHello {
		conn.Close()
		return nil, fmt.Errorf("bad hello %q: %v", raw, err)
	}
	s.conn = conn
	go s.read()
	return s, nil
}

// read matches every per-frame answer to its pending sample by seq. When the
// connection ends it fails whatever is still pending.
func (s *session) read() {
	defer close(s.readDone)
	for {
		raw, err := s.conn.ReadMessage()
		now := time.Now()
		if err != nil {
			s.mu.Lock()
			s.dead = true
			for seq := range s.pending {
				s.finish(seq, now, 0, nil)
			}
			s.mu.Unlock()
			return
		}
		var msg serve.StreamMessage
		if json.Unmarshal(raw, &msg) != nil {
			continue
		}
		code := msg.Code
		switch msg.Type {
		case serve.MsgResult:
			code = http.StatusOK
		case serve.MsgReject, serve.MsgDrop, serve.MsgError:
		default:
			continue // hello, bye and resumed answer no frame
		}
		s.mu.Lock()
		s.finish(msg.Seq, now, code, raw)
		s.mu.Unlock()
	}
}

// finish completes the pending sample seq, if any. Callers hold mu.
func (s *session) finish(seq int, at time.Time, status int, body []byte) {
	p, ok := s.pending[seq]
	if !ok {
		return
	}
	p.done, p.status, p.body = at, status, body
	delete(s.pending, seq)
	<-s.window
	s.inflight.Done()
}

// send writes the session's next frame once a window slot is free and
// returns the sample the reader will complete.
func (s *session) send(in *inputs, due time.Time) *sample {
	s.window <- struct{}{}
	idx := s.frames[s.pos%len(s.frames)]
	s.pos++
	s.seq++
	body := append(strconv.AppendInt([]byte(`{"seq":`), int64(s.seq), 10), ',')
	body = append(body, in.frames[idx].body[1:]...)
	p := &sample{frame: idx, due: due, sent: time.Now()}
	if due.IsZero() {
		p.due = p.sent
	}
	s.mu.Lock()
	if s.dead {
		s.mu.Unlock()
		<-s.window
		p.done = p.sent
		return p
	}
	s.pending[s.seq] = p
	s.inflight.Add(1)
	s.mu.Unlock()
	// A failed write needs no handling of its own: the connection is broken,
	// so the reader fails too and finishes every pending sample.
	_ = s.conn.WriteMessage(body)
	return p
}

// drain waits until every sent frame has its answer. A server that stops
// answering trips the read deadline, which ends the reader and fails them.
func (s *session) drain() {
	_ = s.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	s.inflight.Wait()
	_ = s.conn.SetReadDeadline(time.Time{})
}

func (d *streamDriver) one(int) sample {
	s := d.sessions[0]
	p := s.send(d.in, time.Time{})
	s.drain()
	return *p
}

func (d *streamDriver) closed(dur time.Duration) []sample {
	end := time.Now().Add(dur)
	return d.run(func(_ int, s *session) []*sample {
		var out []*sample
		for time.Now().Before(end) {
			out = append(out, s.send(d.in, time.Time{}))
		}
		return out
	})
}

func (d *streamDriver) paced(dur time.Duration, rate float64) []sample {
	start := time.Now()
	n := len(d.sessions)
	return d.run(func(c int, s *session) []*sample {
		var out []*sample
		for k := c; ; k += n { // the k-th frame of the schedule belongs to session k mod n
			due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
			if due.Sub(start) >= dur {
				return out
			}
			time.Sleep(time.Until(due))
			out = append(out, s.send(d.in, due))
		}
	})
}

// run drives every session with fn on its own goroutine and collects the
// samples once all answers are in.
func (d *streamDriver) run(fn func(c int, s *session) []*sample) []sample {
	per := make([][]*sample, len(d.sessions))
	var wg sync.WaitGroup
	for c, s := range d.sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			per[c] = fn(c, s)
			s.drain()
		}()
	}
	wg.Wait()
	var out []sample
	for _, ps := range per {
		for _, p := range ps {
			out = append(out, *p)
		}
	}
	return out
}

// close says goodbye on every session and waits for the server's own close
// frame, so the server sees orderly ends.
func (d *streamDriver) close() {
	for _, s := range d.sessions {
		_ = s.conn.WriteClose(1000, "bench done")
		_ = s.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	}
	for _, s := range d.sessions {
		<-s.readDone
		_ = s.conn.Close()
	}
}
