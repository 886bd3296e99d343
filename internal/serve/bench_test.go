package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/engine"
	"repro/internal/models"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// BenchmarkServeThroughput measures end-to-end serving throughput (HTTP
// parse + queue + micro-batched inference) with parallel clients, all in
// one process — the profiling target behind `make profile`; the end-to-end
// numbers come from bench/run.sh against the real binary. Mean micro-batch
// size is reported alongside images/sec: it grows with parallelism, since
// a batch grows only while every worker is busy.
func BenchmarkServeThroughput(b *testing.B) {
	net, _, err := models.Build(models.DroNet, 64, tensor.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	eng, err := engine.New(net, engine.Config{Workers: 2, Thresh: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := serve.New(eng, serve.Config{MaxBatch: 8, QueueDepth: 64, Warm: true})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	frames := testFrames(1)
	body, err := json.Marshal(serve.DetectRequest{Width: frames[0].W, Height: frames[0].H, Pixels: frames[0].Pix})
	if err != nil {
		b.Fatal(err)
	}

	b.SetParallelism(8) // 8 client goroutines per GOMAXPROCS
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			for {
				resp, err := http.Post(ts.URL+"/detect", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusTooManyRequests {
					continue // shed load is part of the design; retry
				}
				if resp.StatusCode != http.StatusOK {
					b.Errorf("status %d", resp.StatusCode)
					return
				}
				break
			}
		}
	})
	b.StopTimer()
	stats := srv.Stats()
	b.ReportMetric(stats.MeanBatchSize, "imgs/batch")
	b.ReportMetric(stats.AggregateFPS, "imgs/s")
}
