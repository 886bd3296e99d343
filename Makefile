GO ?= go

.PHONY: ci vet build test race bench bench-smoke serve-smoke swap-smoke shard-smoke stream-smoke stream-soak chaos invariants fuzz serve profile

## ci: the full tier-1 + hygiene gate (what .github/workflows/ci.yml's main
## job runs step by step); bench-smoke runs the GEMM kernels a few iterations
## so a kernel regression (or an asm/portable divergence) breaks CI loudly,
## not just slowly. The recipe line runs the benchmark harness's own tests:
## bench/ is a nested module `./...` does not reach. Deliberately NOT
## `bench`: that is a measurement, not a gate.
ci: vet build race chaos invariants bench-smoke serve-smoke swap-smoke shard-smoke stream-smoke
	cd bench && $(GO) test -short ./...

## bench-smoke: quick kernel-level regression tripwire over the packed GEMM
## benchmarks (10 iterations — catches crashes and gross slowdowns cheaply);
## the -run leg prints the dispatch report and asserts the selected family is
## avx2 on AVX2-capable boxes (TestSelectedKernel skips elsewhere), so a
## silent fall-back to the portable kernels breaks CI instead of just perf; the
## layers leg runs the fused inference convolution at DroNet's nine 256×256
## conv shapes and the streaming 2×2 max-pool at its five pool shapes; the
## imgproc leg runs the /detect/raw pixel conversion on a decoded JPEG and PNG
## and the bilinear resample of a 128×96 camera frame to 64² and 96²; the quant
## leg runs the quarter-scale DroNet at 64² (the routed low model) and 96²
## (detect-ingest's model) as fp32 and as int8 and prints their per-layer µs
## tables (-v); the detect leg runs NMS on random boxes, on
## DroNet's 320 region candidates and on the quarter-scale model's 20 and 45
## (the sets detect-ingest and routed-mixed hand it); the serve leg decodes
## the 96² JSON frames detect-ingest posts, through the fractions kernel, and
## the same frames through encoding/json
bench-smoke:
	$(GO) test -run 'TestKernelDispatchInfo|TestSelectedKernel' -v -bench Gemm -benchtime 10x ./internal/tensor/
	$(GO) test -run '^$$' -bench 'ConvForwardDroNet256|MaxPool2x2' -benchtime 10x ./internal/layers/
	$(GO) test -run '^$$' -bench 'FromGoImage|Resize' -benchtime 10x ./internal/imgproc/
	$(GO) test -run '^$$' -v -bench ForwardDroNet -benchtime 10x ./internal/quant/
	$(GO) test -run '^$$' -bench NMS -benchtime 10x ./internal/detect/
	$(GO) test -run '^$$' -bench DecodeFrame -benchtime 10x ./internal/serve/

## vet: static analysis of the root module and the nested bench module, plus
## the gofmt cleanliness gate — unformatted files
## fail the build with their names listed
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
	    echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## race: the race leg also shuffles test execution order so the lifecycle
## suite can't hide an ordering dependency behind source order
race:
	$(GO) test -race -shuffle=on ./...

## bench: one-iteration smoke pass over every benchmark (catches bit-rot,
## not performance), then the repository benchmark — bench/run.sh drives
## the five BENCHMARK.json workloads against freshly built binaries and
## writes bench/out/ (see bench/README.md; baselines in bench/baseline/)
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	bash bench/run.sh

## serve-smoke: boot the real dronet-serve binary on a random port — once per
## precision (fp32, then -precision int8 with startup calibration), then once
## as a routed two-model registry — POST a synthetic frame to every endpoint,
## assert 200s with well-formed detection JSON, the right precision label and
## the routing matrix (explicit/altitude/404), then SIGTERM-drain it
## (examples/serveclient is the driver)
serve-smoke:
	$(GO) build -o bin/dronet-serve ./cmd/dronet-serve
	$(GO) run ./examples/serveclient -server bin/dronet-serve
	$(GO) run ./examples/serveclient -server bin/dronet-serve -precision int8
	$(GO) run ./examples/serveclient -server bin/dronet-serve \
	    -models "low=dronet:64:int8:150,high=dronet:96:fp32"

## swap-smoke: boot the real dronet-serve binary with its admin listener and
## exercise the live model lifecycle — hot add, two atomic swaps (one
## on the pool carrying background traffic), remove — asserting the data
## plane never returns anything but 200/429 (examples/serveclient -swap is
## the driver)
swap-smoke:
	$(GO) build -o bin/dronet-serve ./cmd/dronet-serve
	$(GO) run ./examples/serveclient -server bin/dronet-serve -size 64 -swap
	$(GO) run ./examples/serveclient -server bin/dronet-serve -size 64 -swap \
	    -models "low=dronet:64:int8:150,high=dronet:96:fp32"

## shard-smoke: boot two real dronet-serve shard processes behind a real
## dronet-proxy and walk the sharded tier — camera affinity, fleet metrics
## aggregation with shard identity labels, then kill -9 one shard under
## traffic asserting only 200/429/503, ejection and failover to the
## survivor (examples/serveclient -sharded is the driver)
shard-smoke:
	$(GO) build -o bin/dronet-serve ./cmd/dronet-serve
	$(GO) build -o bin/dronet-proxy ./cmd/dronet-proxy
	$(GO) run ./examples/serveclient -sharded -server bin/dronet-serve \
	    -proxy bin/dronet-proxy -size 96

## stream-smoke: boot the real dronet-serve binary and walk the WebSocket
## session lifecycle end to end — hello, in-order results with per-session
## tracker state, the max-sessions 503 + Retry-After, in-band bad-frame
## errors, idle eviction (bye "idle") and the SIGTERM drain (bye "drain");
## the -sharded leg then puts two real shards behind a real dronet-proxy
## and asserts camera-affine placement plus the failover resume: draining
## the owner shard mid-session must yield a resumed:true marker on the
## survivor and a fresh tracker (examples/streamclient is the driver)
stream-smoke:
	$(GO) build -o bin/dronet-serve ./cmd/dronet-serve
	$(GO) build -o bin/dronet-proxy ./cmd/dronet-proxy
	$(GO) run ./examples/streamclient -server bin/dronet-serve
	$(GO) run ./examples/streamclient -sharded -server bin/dronet-serve \
	    -proxy bin/dronet-proxy

## stream-soak: the long-running streaming churn test (nightly CI): 16
## session clients over a 12-session budget cycling normal/idle-out/
## abrupt-disconnect/graceful modes under the race detector, asserting the
## session gauge returns to zero and no goroutines leak. SOAK tunes the
## duration (TestStreamSoak skips entirely when DRONET_SOAK is unset).
SOAK ?= 30s
stream-soak:
	DRONET_SOAK=$(SOAK) $(GO) test -race -run TestStreamSoak -v ./internal/serve/

## chaos: the fault-injection resilience suite under the race detector —
## breaker unit lifecycle, chaos against a faulted shard (breaker opens,
## half-open probe recovers it), retry-budget exhaustion, end-to-end
## deadline propagation, the deadline storm that must never reach a kernel
## (pinned by the batch-histogram accounting identity), expired-on-arrival
## 504s, brownout degrade/recover, and goroutine hygiene after Close on
## both the server and the proxy
chaos:
	$(GO) test -race -run 'TestBreaker|TestChaos|TestProxyDeadline|TestDeadline|TestExpired|TestBrownout|GoroutineHygiene' \
	    ./internal/serve/ ./internal/cluster/

## invariants: the system's exact contracts, by name, under the race
## detector in shuffled order — the one command a refactor runs to prove it
## changed nothing: batched ≡ serial byte for byte (one-shot, int8, routed
## per model, streaming sessions, the engine's concurrent replicas, the
## network's batch and clone paths at fp32 and int8), every replica running
## the model's one set of layers, no inference step
## reading its output or a stale step before writing it (a batch after a
## poisoned larger batch ≡ a fresh replica, fp32 and int8), every GEMM kernel family ≡ naive and
## prepacked ≡ pack-per-call, frame decode ≡ encoding/json bit for bit (and
## its pixel parser ≡ strconv.ParseFloat, and its fractions kernel plus
## Go loop ≡ the Go loop alone on every kernel family), the typed /detect/raw pixel conversion ≡
## the generic one bit for bit on every kernel family (and the YCbCr row kernel ≡
## color.YCbCr.RGBA on all 2^24 triples), the bilinear resize ≡ its per-pixel loop bit for
## bit, the fused convolution ≡ im2col + GEMM + BN + bias + leaky and the int8
## convolution ≡ quantize + im2col + int8 GEMM + leaky, the compiled plan (each
## conv and its 2×2/2 pool one step, a batch in image groups) ≡ the
## layer-by-layer Infer chain bit for bit on every kernel family, the
## streaming 2×2 pool ≡ the window loop and the vector
## epilogue row ≡ its Go loop bit for bit on every kernel family, each family's
## rank-1 row update ≡ its Go loop and its finishing direct kernel (live rows,
## grouped panels) ≡ direct kernel + epilogue bit for bit, NMS (area
## window and merge sort) ≡ its per-pair reference element for element, the batcher's dispatch rule (a request waits
## only while every worker is busy), the accounting identity that proves expired
## work never reaches a kernel, minimal ring remap, a forwarded body's pooled
## buffer never recycled while a shard's transport may still read it, zero
## dropped requests across a hot swap, the frozen /metrics wire shape,
## /healthz fleet totals equal to the sums of its per-model blocks across
## add, swap and remove,
## latency percentiles merge exactly (and sit within one 6.25 % bucket of
## the exact nearest-rank sample), and goroutine hygiene after Close
invariants:
	$(GO) test -race -shuffle=on -run 'TestDecodeFrameMatchesEncodingJSON|TestParsePixelMatchesStrconv|TestFractionsKernelMatchesSWAR|TestFromGoImageMatchesGeneric|TestYCbCrRowKernelExhaustive|TestResizeMatchesReference|TestConvInferMatchesIm2colReference|TestQConvMatchesIm2colReference|TestMaxPoolFastMatchesGeneric|TestFusedConvPoolMatchesLayers|TestEpilogueRowMatchesGo|TestMicrokernelAsmMatchesGo|TestDirectKernelMatchesPacked|TestNMSMatchesReferenceOnSpecials|FuzzNMS|TestBatchGrowsOnlyWhileWorkersBusy|TestConcurrentClientsBatchedIdentical|TestInt8ServingBatchedIdentical|TestRoutedPerModelBatchedIdentical|TestStreamSessionsIdentity|TestExecuteBatchMatchesSerial|TestDetectBatchMatchesSerial|TestCloneSharesParamsNotWorkspace|TestCloneConcurrentDetectIdentical|TestInt8DetectBatchMatchesSerial|TestInt8CloneConcurrent|TestForwardIgnoresStaleSlabs|TestInt8ForwardIgnoresStaleSlabs|TestGemmAllKernelsMatchNaive|TestGemmPrepackedMatchesPacked|TestGemmPackedDeterministicAcrossWorkers|TestDeadlineStormNeverReachesKernel|TestRingMinimalRemap|TestProxyForwardBodyNeverReusedEarly|TestSwapUnderTraffic|TestMetricsWireGolden|TestHealthzFleetSums|TestStatsMergeLatencyExact|TestLatencyHistBoundedError|GoroutineHygiene' \
	    ./internal/tensor/ ./internal/imgproc/ ./internal/layers/ ./internal/detect/ ./internal/network/ ./internal/quant/ ./internal/engine/ ./internal/serve/ ./internal/cluster/

## fuzz: short bounded fuzz pass over the detect, kernel, quantization,
## spec-grammar and fault-grammar invariants (FuzzGemmPackedVsNaive
## cross-checks the packed cache-blocked GEMM against the naive loops across
## EVERY registered microkernel family — avx2/portable: exact for int8,
## <=1e-4 relative for fp32; FuzzConvImplicitVsIm2col holds the fused inference convolution
## to the im2col + GEMM + BN/bias/leaky reference bit for bit across the same
## families, FuzzQConvVsIm2colReference the int8 convolution to the quantize +
## im2col + int8 GEMM + leaky reference bit for bit across the same families,
## FuzzResize the bilinear resize to its per-pixel loop bit for bit,
## FuzzMaxPoolFastVsGeneric the streaming 2×2 pool to the generic
## window loop, FuzzConvPool2x2Fused a conv → 2×2 pool network's plan to its
## layer-by-layer Infer chain bit for bit on every family (odd maps and a
## fan-in past one K block included), FuzzNMS NMS to its per-pair reference element for element
## (grid boxes, and raw float64 boxes and scores: NaN, ±Inf, tiny, huge, far);
## the leading dispatch-info run logs which families this box
## detected so fuzz logs are attributable; FuzzParseModelSpecs holds -models
## parsing to a no-panic + parse/format/parse fixed-point contract,
## FuzzParseDeadline the deadline header/query parser to no panic and an
## accepted budget within [0, maxDeadlineBudget], FuzzDecodeStreamFrame the
## session frame decoder to no panic and accepted frames within the
## geometry, pixel-count and deadline bounds, FuzzDecodeFrame the
## hand-written /detect + stream frame decoder to encoding/json — the same
## accept or reject and every field equal, pixels bit for bit —
## FuzzScanFractions the pixel fractions loop with each family's fractions
## kernel to the Go loop alone — the same count and end, pixels bit for bit —
## FuzzDecodeRaw the /detect/raw PNG/JPEG decoder to no panic, accepted
## images within the 2048px side bound and pixels equal to the generic
## conversion bit for bit, FuzzReadMessage the server-side WebSocket frame reader to no panic, an
## end, and no message over the size bound, FuzzHandshake both ends of the
## WebSocket handshake to no panic, a 101 from Accept exactly when the
## request is a valid upgrade, and a *HandshakeError with a body of at most
## 4 kB from Dial for every non-101 answer, FuzzArm the internal/faults spec
## grammar to no panic and accepted specs of one known kind per distinct site
## with a positive slow delay and an error period of at least one). FUZZTIME
## tunes the per-target budget (CI's parallel fuzz job uses 15s; the nightly
## job runs this same target at 10m).
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run TestKernelDispatchInfo -v ./internal/tensor
	$(GO) test -run '^$$' -fuzz FuzzIoU -fuzztime $(FUZZTIME) ./internal/detect
	$(GO) test -run '^$$' -fuzz FuzzNMS -fuzztime $(FUZZTIME) ./internal/detect
	$(GO) test -run '^$$' -fuzz FuzzGemmPackedVsNaive -fuzztime $(FUZZTIME) ./internal/tensor
	$(GO) test -run '^$$' -fuzz FuzzConvImplicitVsIm2col -fuzztime $(FUZZTIME) ./internal/layers
	$(GO) test -run '^$$' -fuzz FuzzMaxPoolFastVsGeneric -fuzztime $(FUZZTIME) ./internal/layers
	$(GO) test -run '^$$' -fuzz FuzzConvPool2x2Fused -fuzztime $(FUZZTIME) ./internal/network
	$(GO) test -run '^$$' -fuzz FuzzQuantDequant -fuzztime $(FUZZTIME) ./internal/quant
	$(GO) test -run '^$$' -fuzz FuzzQConvVsIm2colReference -fuzztime $(FUZZTIME) ./internal/quant
	$(GO) test -run '^$$' -fuzz FuzzResize -fuzztime $(FUZZTIME) ./internal/imgproc
	$(GO) test -run '^$$' -fuzz FuzzParseModelSpecs -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzParseDeadline -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzDecodeStreamFrame -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzDecodeFrame -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzScanFractions -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzDecodeRaw -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzReadMessage -fuzztime $(FUZZTIME) ./internal/ws
	$(GO) test -run '^$$' -fuzz FuzzHandshake -fuzztime $(FUZZTIME) ./internal/ws
	$(GO) test -run '^$$' -fuzz FuzzRingOwnership -fuzztime $(FUZZTIME) ./internal/cluster
	$(GO) test -run '^$$' -fuzz FuzzArm -fuzztime $(FUZZTIME) ./internal/faults

## profile: CPU + heap pprof capture of the in-process serving path, one
## shape a profile. BenchmarkServeThroughput/raw256 (DroNet 256² over JPEG
## /detect/raw with two workers, the detect-compute shape, conv-bound) feeds
## cpu.pprof and heap.pprof; BenchmarkServeThroughput/json96 (96² JSON
## frames over /detect to the quarter-scale model `dronet-serve -scale 0.25
## -size 96` builds, the detect-ingest shape) feeds cpu-json.pprof.
## Inspect with `go tool pprof bin/pprof/cpu.pprof` (see README "Profiling").
## To attribute end-to-end time to layers rather than functions, reach for
## `bash bench/run.sh --workload <w> --trace 1` instead.
profile:
	mkdir -p bin/pprof
	$(GO) test -run '^$$' -bench 'ServeThroughput/raw256' -benchtime 3s -o bin/pprof/serve.test \
	    -cpuprofile bin/pprof/cpu.pprof -memprofile bin/pprof/heap.pprof ./internal/serve/
	$(GO) test -run '^$$' -bench 'ServeThroughput/json96' -benchtime 3s -o bin/pprof/serve.test \
	    -cpuprofile bin/pprof/cpu-json.pprof ./internal/serve/

## serve: run the detection service locally with the default knobs
serve:
	$(GO) run ./cmd/dronet-serve -addr :8080 -size 128 -scale 0.5
