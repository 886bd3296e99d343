package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"image"
	"image/jpeg"
	"image/png"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/imgproc"
	"repro/internal/pipeline"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// The servers run with their flag defaults: random-init weights at seed 1
// and a 0.24 confidence threshold. The oracle must match them.
const (
	serverWeightSeed = 1
	serverThresh     = 0.24
	agreementIoU     = 0.9
)

// frame is one pre-encoded request and what a correct server answers to it.
type frame struct {
	camera   string
	codec    string
	path     string // request path and query; the /stream path for session frames
	ctype    string
	body     []byte         // whole request body
	seen     *imgproc.Image // the image as the server decodes it
	altitude float64
	route    int                   // index of the workload model expected to serve it
	want     []serve.DetectionJSON // fp32 serial oracle at that model's input size
}

// inputs is a workload's seeded request set: frames interleaved camera by
// camera, so consecutive requests come from different cameras.
type inputs struct {
	frames   []frame
	encodeMs float64 // mean time to encode one request body
}

// panStep and panSpan shape a moving camera: the view slides panStep pixels a
// frame across a scene panSpan pixels wider than the frame and back, so the
// cycled sequence never jumps and tracks stay live.
const (
	panStep = 2
	panSpan = 32
)

// makeInputs renders every camera's frames from the seed and encodes the
// request bodies. cameras overrides the workload's count for the stream
// workload, which has one camera per connection.
func makeInputs(w *workload, seed uint64, cameras int) (*inputs, error) {
	perCam := make([][]frame, cameras)
	var encode time.Duration
	for c := range perCam {
		camSeed := seed*1000 + uint64(c) + 1
		rng := tensor.NewRNG(camSeed ^ 0x9e3779b97f4a7c15)
		cfg := dataset.DefaultConfig(w.frameH)
		cfg.Width = w.frameW
		high := float64(c) < w.highShare*float64(cameras)
		var scene *imgproc.Image
		if w.moving {
			cfg.Width += panSpan
			f, _ := pipeline.NewSimCamera(cfg, 1, camSeed).Next()
			scene = f.Image
		}
		cam := pipeline.NewSimCamera(cfg, w.perCamera, camSeed)
		for i := 0; i < w.perCamera; i++ {
			fr := frame{camera: fmt.Sprintf("cam%d", c), codec: w.codecs[i%len(w.codecs)]}
			if w.moving {
				off := i * panStep
				if off > panSpan {
					off = 2*panSpan - off
				}
				fr.seen = scene.Crop(off, 0, w.frameW, w.frameH)
			} else {
				f, _ := cam.Next()
				fr.seen = f.Image
			}
			if len(w.models) > 1 {
				// Altitude only routes here (the servers run without
				// -altfilter): half the cameras fly under the low route's
				// ceiling, half above it.
				ceil := w.models[0].maxAlt
				fr.altitude = 30 + rng.Float64()*(ceil-40)
				if high {
					fr.altitude = ceil + 10 + rng.Float64()*200
					fr.route = 1
				}
			}
			start := time.Now()
			if err := fr.encode(); err != nil {
				return nil, err
			}
			encode += time.Since(start)
			perCam[c] = append(perCam[c], fr)
		}
	}
	in := &inputs{}
	for i := 0; i < w.perCamera; i++ {
		for c := range perCam {
			in.frames = append(in.frames, perCam[c][i])
		}
	}
	in.encodeMs = encode.Seconds() * 1e3 / float64(len(in.frames))
	return in, nil
}

// encode fills the request fields from the rendered image. For the image
// codecs, seen becomes what the server's own decoder makes of the bytes.
func (f *frame) encode() error {
	img := f.seen
	switch f.codec {
	case codecJSON:
		f.path, f.ctype = "/detect", "application/json"
		body, err := json.Marshal(serve.DetectRequest{Width: img.W, Height: img.H, Pixels: img.Pix, Altitude: f.altitude})
		f.body = body
		return err
	case codecStream:
		f.path = "/stream?camera=" + f.camera
		body, err := json.Marshal(serve.StreamFrame{Width: img.W, Height: img.H, Pixels: img.Pix})
		f.body = body // the session driver splices the seq field in after the brace
		return err
	case codecJPEG, codecPNG:
		f.path = "/detect/raw"
		if f.altitude > 0 {
			f.path += fmt.Sprintf("?altitude=%g", f.altitude)
		}
		var buf bytes.Buffer
		var err error
		if f.codec == codecJPEG {
			f.ctype = "image/jpeg"
			err = jpeg.Encode(&buf, img.ToNRGBA(), &jpeg.Options{Quality: 90})
		} else {
			f.ctype = "image/png"
			err = png.Encode(&buf, img.ToNRGBA())
		}
		if err != nil {
			return err
		}
		f.body = buf.Bytes()
		dec, _, err := image.Decode(bytes.NewReader(f.body))
		if err != nil {
			return err
		}
		f.seen = imgproc.FromGoImage(dec)
		return nil
	}
	return fmt.Errorf("unknown codec %q", f.codec)
}

// newDetector rebuilds one hosted model the way dronet-serve does.
func newDetector(w *workload, m modelSpec) (*core.Detector, error) {
	return core.NewScaledDetector("dronet", m.size, w.scale, serverWeightSeed)
}

// serialRunner is the oracle's executor: the fp32 model, one image a call.
func serialRunner(det *core.Detector) *pipeline.BatchRunner {
	return &pipeline.BatchRunner{Net: det.Model(), Thresh: serverThresh, NMSThresh: det.NMSThresh}
}

// fillOracle computes every frame's expected detections on the fp32 serial
// oracle of the model its route resolves to (for an int8 route that is the
// fp32 model at the same input size: the accuracy reference).
func fillOracle(w *workload, in *inputs) error {
	for r, m := range w.models {
		det, err := newDetector(w, m)
		if err != nil {
			return err
		}
		run := serialRunner(det)
		for i := range in.frames {
			f := &in.frames[i]
			if f.route != r {
				continue
			}
			per, err := run.Detect([]*imgproc.Image{f.seen}, nil)
			if err != nil {
				return err
			}
			f.want = wire(per[0])
		}
	}
	return nil
}

// wire converts detections to the servers' wire form (never nil).
func wire(dets []detect.Detection) []serve.DetectionJSON {
	out := make([]serve.DetectionJSON, len(dets))
	for i, d := range dets {
		out[i] = serve.DetectionJSON{X: d.Box.X, Y: d.Box.Y, W: d.Box.W, H: d.Box.H, Class: d.Class, Score: d.Score}
	}
	return out
}

func unwire(dets []serve.DetectionJSON) []detect.Detection {
	out := make([]detect.Detection, len(dets))
	for i, d := range dets {
		out[i] = detect.Detection{Box: detect.Box{X: d.X, Y: d.Y, W: d.W, H: d.H}, Class: d.Class, Score: d.Score}
	}
	return out
}
