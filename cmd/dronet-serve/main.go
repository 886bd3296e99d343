// Command dronet-serve exposes one or several detectors as the HTTP
// micro-batching service (internal/serve): concurrent requests are admitted
// through bounded per-model queues (429 on overload) and coalesced into
// dynamic micro-batches executed on each model's engine replica pool.
//
// Usage:
//
//	dronet-serve -addr :8080 -model dronet -size 128 -scale 0.5 \
//	    -weights dronet.weights -workers 4 -max-batch 8
//
// The engine is precision-agnostic: -precision int8 serves the INT8-quantized
// model (batch-norm folding, per-channel weight scales, activation scales
// calibrated at startup on synthetic sample frames) — the same network type
// with quant.QConv convolutions — through exactly the same admission queue
// and batcher as fp32, and /healthz, /metrics label the active precision.
//
// The server always hosts a routed registry of models, and every hosted
// model is built one way, from a name=model:size:precision spec. Without
// -models the single-model flags are the one-entry registry
// "default=<model>:<size>:<precision>", and -weights loads into that entry
// (it is refused beside -models). With -models the registry holds several:
//
//	dronet-serve -addr :8080 -models "low=dronet:96:int8:150,high=dronet:128:fp32"
//
// Each comma-separated entry is
// name=model:size:precision[:maxalt][:degrade=sibling]; the first entry is
// the default route. Requests pick a model explicitly with ?model= or the
// X-Model header; otherwise a request carrying an altitude is routed to
// the model whose maxalt band covers it (the paper's operating-scenario
// trade-off: low flight ⇒ large targets ⇒ the small fast model; high
// flight ⇒ the larger-input one). Each model runs its batches on its own
// -workers replicas only. /healthz and /metrics carry per-model labelled blocks plus fleet
// aggregates.
//
// With -admin HOST:PORT a second, operations-only listener exposes the
// live model lifecycle (GET/POST /admin/models, PUT/DELETE
// /admin/models/{name}): models can be added, weight-swapped and removed
// under traffic with zero dropped requests — new pools are built off the
// request path and the routing table flips atomically. Keep this listener
// on loopback or an ops network; it is deliberately not part of the data
// plane handler.
//
// With -shard-id the server stamps that identity (plus its bound address)
// on /healthz and /metrics so a fronting dronet-proxy — and anyone scraping
// shards directly — can attribute fleet metrics to the right process.
//
// The server prints "listening on HOST:PORT" once the socket is bound (so
// -addr 127.0.0.1:0 picks a free port scripts can parse; with -admin the
// second line is "admin listening on HOST:PORT") and drains in-flight
// requests on SIGINT/SIGTERM across every model's pool.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/models"
	"repro/internal/pipeline"
	"repro/internal/serve"
	"repro/internal/tensor"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dronet-serve: ")
	addr := flag.String("addr", ":8080", "listen address (host:0 picks a free port)")
	adminAddr := flag.String("admin", "", "admin listen address for the model-lifecycle endpoints (disabled when empty; keep on loopback)")
	model := flag.String("model", models.DroNet, "model name")
	size := flag.Int("size", 128, "network input resolution")
	scale := flag.Float64("scale", 0.5, "filter-count scale (1.0 = paper-size model)")
	weightsPath := flag.String("weights", "", "trained weights file (random init when empty)")
	precision := flag.String("precision", "fp32", "inference precision: fp32 or int8 (post-training quantized)")
	modelsFlag := flag.String("models", "", `routed multi-model registry: "name=model:size:precision[:maxalt][:degrade=sibling],..." (first entry is the default route; overrides -model/-size/-precision)`)
	calibFrames := flag.Int("calib-frames", 8, "int8: synthetic sample frames for activation-scale calibration")
	workers := flag.Int("workers", runtime.NumCPU(), "batch worker pool size (model replicas)")
	maxBatch := flag.Int("max-batch", 8, "maximum images per micro-batch")
	queueDepth := flag.Int("queue", 0, "admission queue depth (0 = 8*max-batch); full queue returns 429")
	shardID := flag.String("shard-id", "", "fleet identity label stamped on /healthz and /metrics (for sharded deployments behind dronet-proxy)")
	maxSessions := flag.Int("max-sessions", 64, "streaming: maximum concurrently open /stream sessions (beyond it new opens get 503 + Retry-After)")
	sessionIdle := flag.Duration("session-idle", 60*time.Second, "streaming: idle timeout before a quiet session is evicted with a bye")
	sessionInflight := flag.Int("session-inflight", 4, "streaming: per-session bound on buffered frames before backpressure (reject or drop-oldest)")
	thresh := flag.Float64("thresh", 0.24, "detection confidence threshold")
	altFilter := flag.Bool("altfilter", false, "apply the altitude size gate when requests carry an altitude")
	flag.Parse()

	if faults.Enabled() {
		log.Print("warning: fault injection armed")
	}
	log.Printf("gemm kernel: %s (available: %s)", tensor.KernelName(), strings.Join(tensor.AvailableKernels(), ", "))

	// Without -models the single-model flags are the one-entry registry
	// "default=model:size:precision", the only spec -weights applies to.
	modelsSpec := *modelsFlag
	if modelsSpec == "" {
		modelsSpec = fmt.Sprintf("default=%s:%d:%s", *model, *size, *precision)
		if *weightsPath == "" {
			log.Print("warning: no -weights given, using random initialization")
		}
	} else if *weightsPath != "" {
		log.Fatal("-weights is single-model only and incompatible with -models")
	}
	specs, err := serve.ParseModelSpecs(modelsSpec)
	if err != nil {
		log.Fatal(err)
	}

	// NMSThresh is deliberately left zero here: buildEntry fills it from
	// each spec's detector.
	cfg := engine.Config{Workers: *workers, Thresh: *thresh}
	if *altFilter {
		gate := detect.NewVehicleAltitudeFilter()
		cfg.AltitudeFilter = &gate
	}
	scfg := serve.Config{
		MaxBatch:   *maxBatch,
		QueueDepth: *queueDepth,
		Warm:       true,
	}

	entries := make([]serve.ModelEntry, 0, len(specs))
	for _, spec := range specs {
		e, err := buildEntry(spec, *weightsPath, *scale, *calibFrames, cfg, scfg)
		if err != nil {
			log.Fatal(err)
		}
		entries = append(entries, e)
	}
	srv, err := serve.NewRouted(entries)
	if err != nil {
		log.Fatal(err)
	}
	// The admin endpoints build posted specs with the same command-level
	// scale, calibration budget and engine/batch knobs as the startup
	// entries, off the serving path, and never with -weights.
	srv.SetModelBuilder(func(spec serve.ModelSpec) (serve.ModelEntry, error) {
		return buildEntry(spec, "", *scale, *calibFrames, cfg, scfg)
	})
	srv.ConfigureStreams(serve.StreamConfig{
		MaxSessions: *maxSessions,
		IdleTimeout: *sessionIdle,
		MaxInflight: *sessionInflight,
	})

	// Caught before the handshake, so a SIGTERM right after it still drains.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	if *shardID != "" {
		srv.SetIdentity(*shardID, ln.Addr().String())
	}
	fmt.Printf("listening on %s\n", ln.Addr())
	var adminHTTP *http.Server
	if *adminAddr != "" {
		aln, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("admin listening on %s\n", aln.Addr())
		adminHTTP = &http.Server{Handler: srv.AdminHandler()}
		go func() {
			if err := adminHTTP.Serve(aln); err != nil && err != http.ErrServerClosed {
				log.Printf("admin: %v", err)
			}
		}()
	}
	log.Printf("routed models %v (default %s), %d workers per pool, max-batch %d",
		srv.Models(), srv.Models()[0], *workers, *maxBatch)

	httpSrv := &http.Server{Handler: srv}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case err := <-errCh:
		log.Fatal(err)
	case s := <-sig:
		log.Printf("%s: draining", s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if adminHTTP != nil {
		// Stop lifecycle mutations before draining the data plane, so the
		// drain isn't racing an in-flight swap's pool churn.
		if err := adminHTTP.Shutdown(ctx); err != nil {
			log.Printf("admin shutdown: %v", err)
		}
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("drain: %v", err)
	}
	log.Printf("final stats: %+v", srv.Stats())
}

// buildEntry turns one parsed model spec into a hosted entry: a scaled
// detector (its weights loaded from weightsPath when non-empty, quantized
// when the spec says int8), an engine replica pool and a batching config.
// The pool inherits the command-level worker count and batching knobs;
// precision, input size, altitude band and degrade sibling come from the
// spec. It is the one way a hosted model is built: startup entries, the
// single-model flags' "default" spec and the admin endpoints' ModelBuilder
// all come through here.
func buildEntry(spec serve.ModelSpec, weightsPath string, scale float64, calibFrames int, cfg engine.Config, scfg serve.Config) (serve.ModelEntry, error) {
	det, err := core.NewScaledDetector(spec.Model, spec.Size, scale, 1)
	if err != nil {
		return serve.ModelEntry{}, fmt.Errorf("model %s: %w", spec.Name, err)
	}
	if weightsPath != "" {
		if err := det.LoadWeights(weightsPath); err != nil {
			return serve.ModelEntry{}, fmt.Errorf("model %s: %w", spec.Name, err)
		}
	}
	mdl, err := buildModel(det, spec.Precision, spec.Size, calibFrames)
	if err != nil {
		return serve.ModelEntry{}, fmt.Errorf("model %s: %w", spec.Name, err)
	}
	ecfg := cfg
	ecfg.NMSThresh = det.NMSThresh
	eng, err := engine.New(mdl, ecfg)
	if err != nil {
		return serve.ModelEntry{}, fmt.Errorf("model %s: %w", spec.Name, err)
	}
	mcfg := scfg
	mcfg.Precision = spec.Precision
	degradeLabel := ""
	if spec.Degrade != "" {
		degradeLabel = ", degrades to " + spec.Degrade
	}
	log.Printf("registered %s (input %dx%d, %s%s%s)", spec.Name, spec.Size, spec.Size, spec.Precision,
		altLabel(spec.MaxAltitude), degradeLabel)
	return serve.ModelEntry{
		Name:        spec.Name,
		Engine:      eng,
		Config:      mcfg,
		MaxAltitude: spec.MaxAltitude,
		Degrade:     spec.Degrade,
	}, nil
}

func altLabel(maxAlt float64) string {
	if maxAlt <= 0 {
		return ""
	}
	return fmt.Sprintf(", altitude <= %gm", maxAlt)
}

// buildModel returns the inference model for the requested precision. For
// int8 it quantizes the detector post-training, calibrating the per-layer
// activation scales on synthetic sample frames rendered at the network's
// input size — the startup-time stand-in for a deployment's recorded sample
// traffic.
func buildModel(det *core.Detector, precision string, size, calibFrames int) (core.Model, error) {
	if precision != "int8" {
		return det.Model(), nil
	}
	if calibFrames < 1 {
		calibFrames = 1
	}
	cam := pipeline.NewSimCamera(dataset.DefaultConfig(size), calibFrames, 7)
	var calib []*tensor.Tensor
	for {
		f, ok := cam.Next()
		if !ok {
			break
		}
		calib = append(calib, f.Image.ToTensor())
	}
	start := time.Now()
	mdl, err := det.QuantizeINT8(calib)
	if err != nil {
		return nil, err
	}
	log.Printf("int8: calibrated on %d frames in %s, weights %d bytes (fp32 %d)",
		len(calib), time.Since(start).Round(time.Millisecond), mdl.WeightBytes(), det.Model().WeightBytes())
	return mdl, nil
}
