package pipeline

import (
	"fmt"

	"repro/internal/detect"
	"repro/internal/imgproc"
	"repro/internal/network"
	"repro/internal/tensor"
)

// BatchRunner executes the detector on dynamic micro-batches of images: it
// packs N images into one N-batch tensor, runs a single batched Forward, and
// returns each image's detections separately. The per-image results are
// identical to N single-image Detect calls (see network.DetectBatch), which
// is what lets the serving layer coalesce concurrent requests without
// changing what any caller observes.
//
// A BatchRunner is not safe for concurrent use: the packed input tensor and
// the model's layer workspaces are per-instance state. Give each worker its
// own BatchRunner over a CloneForInference replica.
// Net is the precision-agnostic model interface: the same batcher drives a
// float32 network.Network or an INT8 quant.QNet.
type BatchRunner struct {
	Net network.Model
	// Thresh and NMSThresh are the decode and suppression thresholds
	// (defaults 0.5 / 0.45 when zero).
	Thresh, NMSThresh float64
	// AltitudeFilter, when non-nil, applies the §III.D size gating per image
	// using the corresponding altitude (images with altitude <= 0 skip it).
	AltitudeFilter *detect.AltitudeFilter

	in *tensor.Tensor // packed batch input, reused across calls
}

// Warm runs one throwaway forward at the given batch size so every layer
// workspace (activation buffers, arena scratch) is allocated at full
// micro-batch capacity before the first real request arrives. Subsequent
// smaller batches re-slice the same storage.
func (r *BatchRunner) Warm(batch int) {
	if r.Net == nil || batch < 1 {
		return
	}
	r.Net.ForwardBatch(r.ensureIn(batch))
}

// ensureIn returns the packed input tensor for n images, growing its backing
// storage only when a larger batch than ever before arrives.
func (r *BatchRunner) ensureIn(n int) *tensor.Tensor {
	in := r.Net.InShape()
	r.in = tensor.Reslice(r.in, n, in.C, in.H, in.W)
	return r.in
}

// Detect runs one micro-batch. altitudes may be nil (no gating) or must have
// one entry per image. Images are resized to the network input as the
// Darknet capture loop does. The returned slice has one entry per input image,
// in order.
func (r *BatchRunner) Detect(imgs []*imgproc.Image, altitudes []float64) ([][]detect.Detection, error) {
	if r.Net == nil {
		return nil, fmt.Errorf("pipeline: BatchRunner requires a model")
	}
	if len(imgs) == 0 {
		return nil, nil
	}
	if altitudes != nil && len(altitudes) != len(imgs) {
		return nil, fmt.Errorf("pipeline: %d altitudes for %d images", len(altitudes), len(imgs))
	}
	thresh := r.Thresh
	if thresh <= 0 {
		thresh = 0.5
	}
	nms := r.NMSThresh
	if nms <= 0 {
		nms = 0.45
	}
	x := r.ensureIn(len(imgs))
	in := r.Net.InShape()
	if in.C != 3 {
		// imgproc images are inherently 3-channel RGB; packing them into a
		// model with a different channel count would silently misalign every
		// slot after the first.
		return nil, fmt.Errorf("pipeline: model expects %d input channels, images are 3-channel RGB", in.C)
	}
	sample := in.Size()
	for i, img := range imgs {
		if img == nil {
			return nil, fmt.Errorf("pipeline: nil image at batch index %d", i)
		}
		if img.W != in.W || img.H != in.H {
			img = img.Resize(in.W, in.H)
		}
		copy(x.Data[i*sample:(i+1)*sample], img.Pix)
	}
	per, err := r.Net.DetectBatch(x, thresh, nms)
	if err != nil {
		return nil, err
	}
	if r.AltitudeFilter != nil && altitudes != nil {
		for i := range per {
			if altitudes[i] <= 0 {
				continue
			}
			per[i], err = r.AltitudeFilter.Apply(per[i], altitudes[i])
			if err != nil {
				return nil, err
			}
		}
	}
	return per, nil
}
