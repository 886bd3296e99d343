// Package repro is a from-scratch Go reproduction of "DroNet: Efficient
// Convolutional Neural Network Detector for Real-Time UAV Applications"
// (Kyrkou et al., DATE 2018): a Darknet-style CNN framework, the paper's
// four detector architectures, a synthetic aerial-vehicle dataset, the
// evaluation metrics, and calibrated platform models for the paper's three
// deployment targets. See README.md for the layout and EXPERIMENTS.md for
// the paper-vs-measured results.
//
// Beyond the paper's single-camera loop, internal/engine scales one trained
// detector to many concurrent requests: layers separate shared read-only
// weights from per-instance workspace, Network.CloneForInference produces
// weight-sharing replicas, and Engine.ExecuteBatch runs a micro-batch on one
// replica of the pool while other workers run theirs.
//
// On top of the engine, internal/serve exposes detectors as an HTTP
// service (cmd/dronet-serve, examples/serveclient): the server hosts a
// routed registry of named models — any mix of precisions and input sizes,
// one engine replica pool, bounded admission queue (429 on overload) and
// micro-batcher per model (engine.Group tracks the pools) — and routes
// each request by explicit ?model=/X-Model selection, else by altitude
// band (the paper's operating-scenario trade-off: small fast model low,
// larger model high), else to the default. Admitted requests are coalesced
// into dynamic micro-batches — one N-image batched Forward per batch, with
// per-image detections byte-identical to single-image inference — with
// /metrics reporting latency percentiles, batch-size histogram and
// aggregate FPS per model plus fleet-wide, and one drain fencing every
// pool on shutdown.
//
// The stack is precision-agnostic: engine, pipeline and serve all operate
// on the core.Model interface (ForwardBatch, DetectBatch, CloneForInference,
// InShape/OutShape, WeightBytes), implemented by the float32
// network.Network and the INT8 quant.QNet alike. dronet-serve's -precision
// knob selects the deployed bit-width (the paper's §V future work): int8
// serving quantizes post-training at startup — batch-norm folding,
// per-channel weight scales, activation scales calibrated on sample frames
// — and runs batched int8 inference (int8 im2col + tensor.GemmInt8 with
// exact int32 accumulation) through the identical micro-batching path,
// labelling /metrics with the active precision; the repository benchmark
// (bench/, BENCHMARK.json) serves int8 beside fp32 in its routed-mixed
// workload and scores both against the fp32 serial oracle.
//
// Both precisions lower convolution onto one packed cache-blocked GEMM
// (internal/tensor): BLIS-style MR×KC / KC×NR panel packing feeding a
// register-blocked microkernel (AVX2 assembly on capable amd64, portable Go
// elsewhere), parallel across row strips and column panels with a tile
// decomposition independent of the worker count. fp32 inference runs it as
// an implicit GEMM (tensor.ConvPrepacked): B panels are packed straight
// from the CHW input, never through a materialised im2col matrix, and batch
// norm, bias and leaky-ReLU are applied to each output tile as it is
// finished — bit-identical to the staged im2col + GEMM lowering the
// training path still uses. The int8 kernel
// accumulates exactly in int32 over packed int16 pairs and requantizes on
// store, so its results are blocking- and concurrency-invariant. The
// steady-state serving path is allocation-free: each model replica owns a
// grow-once scratch arena (tensor.Arena) for its transient per-forward
// buffers, reset at the start of every pass.
package repro
