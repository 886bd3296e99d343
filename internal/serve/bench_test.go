package serve_test

import (
	"bytes"
	"encoding/json"
	"image/jpeg"
	"image/png"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/models"
	"repro/internal/network"
	"repro/internal/pipeline"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// BenchmarkServeThroughput measures end-to-end serving throughput (HTTP
// parse + queue + micro-batched inference) with parallel clients, all in
// one process — the profiling target behind `make profile`; the end-to-end
// numbers come from bench/run.sh against the real binary. json96 posts a
// 96² JSON frame to the quarter-scale 96² DroNet, built as `dronet-serve
// -scale 0.25 -size 96` builds it (detect-ingest's model), from eight
// clients per CPU; raw256 posts a 256² JPEG to /detect/raw on the
// paper-size 256² DroNet from two clients per CPU — detect-compute's shape,
// where the forward pass, convolution above all, outweighs the request
// path; png128x96 posts a 128x96 PNG to /detect/raw on the quarter-scale
// 96² DroNet from eight clients per CPU, resized to 96² on the way in — the
// PNG shape routed-mixed posts. All run two workers. Mean micro-batch size is reported alongside
// images/sec: it grows with parallelism, since a batch grows only while
// every worker is busy.
func BenchmarkServeThroughput(b *testing.B) {
	b.Run("json96", func(b *testing.B) {
		det, err := core.NewScaledDetector(models.DroNet, 96, 0.25, 1)
		if err != nil {
			b.Fatal(err)
		}
		f := framesAt(96, 1, 77)[0]
		body, err := json.Marshal(serve.DetectRequest{Width: f.W, Height: f.H, Pixels: f.Pix})
		if err != nil {
			b.Fatal(err)
		}
		benchServe(b, det.Net, "/detect", "application/json", body, 8)
	})
	b.Run("png128x96", func(b *testing.B) {
		det, err := core.NewScaledDetector(models.DroNet, 96, 0.25, 1)
		if err != nil {
			b.Fatal(err)
		}
		cfg := dataset.DefaultConfig(96)
		cfg.Width = 128
		f, _ := pipeline.NewSimCamera(cfg, 1, 77).Next()
		var body bytes.Buffer
		if err := png.Encode(&body, f.Image.ToNRGBA()); err != nil {
			b.Fatal(err)
		}
		benchServe(b, det.Net, "/detect/raw", "image/png", body.Bytes(), 8)
	})
	b.Run("raw256", func(b *testing.B) {
		net, _, err := models.Build(models.DroNet, 256, tensor.NewRNG(1))
		if err != nil {
			b.Fatal(err)
		}
		var body bytes.Buffer
		if err := jpeg.Encode(&body, framesAt(256, 1, 77)[0].ToNRGBA(), nil); err != nil {
			b.Fatal(err)
		}
		benchServe(b, net, "/detect/raw", "image/jpeg", body.Bytes(), 2)
	})
}

// benchServe drives a two-worker server over net with parallelism client
// goroutines per GOMAXPROCS, each posting body to path in a loop; a 429 is
// retried, since shedding load is part of the design.
func benchServe(b *testing.B, net *network.Network, path, contentType string, body []byte, parallelism int) {
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

	b.SetParallelism(parallelism)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			for {
				resp, err := http.Post(ts.URL+path, contentType, bytes.NewReader(body))
				if err != nil {
					b.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusTooManyRequests {
					continue
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
