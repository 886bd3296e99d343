// Package core is the top-level DroNet API tying the substrates together: a
// Detector bundles a network with its thresholds and knows how to train on
// a dataset, detect vehicles in arbitrary-size images (with letterboxing
// and coordinate mapping), persist weights, and report its workload.
//
// A downstream user should be able to reproduce the paper's deployment with
// a few lines:
//
//	det, _ := core.NewDetector(models.DroNet, 512, 1)
//	_ = det.TrainOn(trainSet, cfg)
//	dets, _ := det.DetectImage(frame)
package core

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/eval"
	"repro/internal/imgproc"
	"repro/internal/models"
	"repro/internal/network"
	"repro/internal/platform"
	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/train"
	"repro/internal/weights"
)

// Model is the precision-agnostic inference interface consumed by the
// engine's replica pool and the serving micro-batcher: ForwardBatch,
// DetectBatch, CloneForInference, InShape/OutShape and WeightBytes. The
// float32 *network.Network and the INT8 *quant.QNet both implement it, so
// deployed bit-width is chosen where the model is built (see
// Detector.QuantizeINT8), not in the serving layers.
type Model = network.Model

// Detector is a ready-to-use single-shot vehicle detector.
type Detector struct {
	Net   *network.Network
	Hyper *cfg.Hyper
	// Thresh is the decode confidence threshold; NMSThresh the suppression
	// IoU threshold. Defaults are Darknet's demo values, 0.24 and 0.45
	// (with rescore training the confidence target is the box IoU, so
	// useful thresholds sit well below 0.5).
	Thresh, NMSThresh float64
}

// NewDetector builds a registered model (see package models) at the given
// input size with reproducible weight initialization.
func NewDetector(model string, size int, seed uint64) (*Detector, error) {
	net, hyper, err := models.Build(model, size, tensor.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	return &Detector{Net: net, Hyper: hyper, Thresh: 0.24, NMSThresh: 0.45}, nil
}

// NewDetectorFromCfg builds a detector from Darknet-style cfg text, for
// custom architectures.
func NewDetectorFromCfg(name, cfgText string, seed uint64) (*Detector, error) {
	def, err := cfg.ParseString(cfgText)
	if err != nil {
		return nil, err
	}
	net, hyper, err := cfg.Build(name, def, tensor.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	if net.Region() == nil {
		return nil, fmt.Errorf("core: cfg %q does not end in a region layer", name)
	}
	return &Detector{Net: net, Hyper: hyper, Thresh: 0.24, NMSThresh: 0.45}, nil
}

// NewScaledDetector builds a registered model at the given input size with
// its filter counts scaled by scale (1.0 = the paper-size model) — the
// shared construction path of every cmd that exposes -model/-size/-scale.
func NewScaledDetector(model string, size int, scale float64, seed uint64) (*Detector, error) {
	if scale == 1.0 {
		return NewDetector(model, size, seed)
	}
	text, err := models.Cfg(model, size)
	if err != nil {
		return nil, err
	}
	scaled, err := models.Scale(text, scale)
	if err != nil {
		return nil, err
	}
	return NewDetectorFromCfg(fmt.Sprintf("%s-x%.2f", model, scale), scaled, seed)
}

// TrainOn trains the detector on a dataset.
func (d *Detector) TrainOn(ds *dataset.Dataset, c train.Config) (*train.Result, error) {
	return train.Run(d.Net, ds, c)
}

// DefaultTrainConfig derives a training configuration from the model's
// [net] hyper-parameters.
func (d *Detector) DefaultTrainConfig() train.Config {
	return train.FromHyper(d.Hyper)
}

// DetectImage finds vehicles in an image of any size. Non-square or
// differently sized inputs are letterboxed to the network resolution and
// the returned boxes are mapped back to the original image's normalized
// coordinates.
func (d *Detector) DetectImage(img *imgproc.Image) ([]detect.Detection, error) {
	if img == nil {
		return nil, fmt.Errorf("core: nil image")
	}
	if img.W == d.Net.InputW && img.H == d.Net.InputH {
		return d.Net.Detect(img.ToTensor(), d.Thresh, d.NMSThresh)
	}
	boxed, sx, sy, ox, oy := img.Letterbox(d.Net.InputW, d.Net.InputH)
	dets, err := d.Net.Detect(boxed.ToTensor(), d.Thresh, d.NMSThresh)
	if err != nil {
		return nil, err
	}
	mapped := make([]detect.Detection, 0, len(dets))
	for _, dt := range dets {
		b := dt.Box
		b.X = (b.X - ox) / sx
		b.Y = (b.Y - oy) / sy
		b.W /= sx
		b.H /= sy
		dt.Box = b.Clip()
		if dt.Box.Area() == 0 {
			continue // detection entirely inside the letterbox padding
		}
		mapped = append(mapped, dt)
	}
	return mapped, nil
}

// EvaluateOn scores the detector on a labelled dataset with the paper's
// accuracy metrics.
func (d *Detector) EvaluateOn(ds *dataset.Dataset) (eval.Metrics, error) {
	return train.Evaluate(d.Net, ds, d.Thresh, d.NMSThresh)
}

// PredictFPS returns the platform model's throughput estimate for this
// detector on the named platform ("i5", "odroid", "rpi3").
func (d *Detector) PredictFPS(platformName string) (float64, error) {
	p, err := platform.ByName(platformName)
	if err != nil {
		return 0, err
	}
	return p.Predict(d.Net).FPS, nil
}

// Model returns the detector's float32 network as the precision-agnostic
// Model the engine and serving stack consume.
func (d *Detector) Model() Model { return d.Net }

// QuantizeINT8 builds the INT8 inference model of this detector (§V future
// work: reduced deployed bit-width): batch norm is folded, weights get
// per-output-channel scales, and activation scales are calibrated on the
// given sample images. The result implements Model, so it drops into the
// engine replica pool and the serving micro-batcher in place of the float32
// network.
func (d *Detector) QuantizeINT8(calibration []*tensor.Tensor) (Model, error) {
	return quant.Quantize(d.Net, calibration)
}

// SaveWeights persists the trained parameters.
func (d *Detector) SaveWeights(path string) error { return weights.SaveFile(d.Net, path) }

// LoadWeights restores parameters saved from an identical architecture.
func (d *Detector) LoadWeights(path string) error { return weights.LoadFile(d.Net, path) }

// Summary returns the layer table (paper Fig. 1/2 style).
func (d *Detector) Summary() string { return d.Net.Summary() }

// FLOPs returns the per-image forward workload.
func (d *Detector) FLOPs() int64 { return d.Net.FLOPs() }
