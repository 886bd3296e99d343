// Package repro is a from-scratch Go reproduction of "DroNet: Efficient
// Convolutional Neural Network Detector for Real-Time UAV Applications"
// (Kyrkou et al., DATE 2018): a Darknet-style CNN framework, the paper's
// four detector architectures, a synthetic aerial-vehicle dataset, the
// evaluation metrics, and calibrated platform models for the paper's three
// deployment targets. See README.md for the layout. The dronet command
// (cmd/dronet) runs the paper's offline pipeline as subcommands — arch,
// data, train, detect, platform and sweep — and the benchmarks in
// bench_test.go regenerate the paper's tables and figures on the host CPU.
//
// Beyond the paper's single-camera loop, internal/engine scales one trained
// detector to many concurrent requests: layers hold read-only weights and
// run inference into memory the network owns (two activation slabs and a
// scratch arena per replica), Network.CloneForInference produces replicas
// that run the model's one set of layers over memory of their own, and
// Engine.ExecuteBatch runs a micro-batch on one replica of the pool while
// other workers run theirs.
//
// On top of the engine, internal/serve exposes detectors as an HTTP
// service (cmd/dronet-serve, examples/client): the server hosts a
// routed registry of named models — any mix of precisions and input sizes,
// one engine replica pool, bounded admission queue (429 on overload) and
// micro-batcher per model, all held in one atomically swapped route table
// (dronet-serve builds every model, a lone -model included, from the same
// name=model:size:precision spec) — and routes each request by explicit
// ?model=/X-Model selection, else by altitude band (the paper's
// operating-scenario trade-off: small fast model low, larger model high),
// else to the default. Admitted requests are coalesced
// into dynamic micro-batches — one N-image batched Forward per batch, with
// per-image detections byte-identical to single-image inference — with
// /metrics reporting latency percentiles, batch-size histogram and
// aggregate FPS per model plus fleet-wide, and one drain fencing every
// pool on shutdown.
//
// The stack is precision-agnostic: engine, pipeline and serve all operate
// on one model type, network.Network (core.Model), whose convolutions are
// float32 layers.Conv2D or int8 quant.QConv layers. dronet-serve's
// -precision knob selects the deployed bit-width (the paper's §V future
// work): int8 serving quantizes post-training at startup — batch-norm
// folding, per-channel weight scales, activation scales calibrated on
// sample frames — and runs batched int8 inference (tensor.ConvPrepackedInt8:
// the input quantized once into a zero-bordered plane the int8 kernels read
// in place, exact int32 accumulation, requantization and leaky fused into
// the store) through the identical micro-batching path,
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
// training path still uses. A convolution followed by a 2×2/2 max-pool
// over an even-sized map is one inference step
// (tensor.ConvPool2x2Prepacked): it runs over bands of output row pairs
// into cache-sized per-task scratch and pools each band straight into its
// output, so the full-resolution activation is never stored. The int8 kernel
// accumulates exactly in int32 over packed int16 pairs and requantizes on
// store, so its results are blocking- and concurrency-invariant. The
// steady-state serving path is allocation-free: each model replica runs the
// steps its network compiles from the layers over two activation slabs
// sized from the steps' static output shapes, a final output buffer and a
// grow-once scratch arena (tensor.Arena) reset before every step, one
// cache-sized group of images at a time.
package repro
