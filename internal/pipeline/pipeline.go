// Package pipeline is the detector's per-frame path: BatchRunner packs
// camera frames into one batch, runs the model, and applies the threshold
// defaults, resize and §III.D altitude gating the paper's on-board loop
// (§IV.B) applies to each frame. The engine's replica pool gives every
// worker its own BatchRunner. A simulated camera generates synthetic aerial
// scenes at a configurable altitude, standing in for the DJI Matrice 100's
// camera feed.
package pipeline

import (
	"repro/internal/dataset"
	"repro/internal/imgproc"
	"repro/internal/tensor"
)

// Frame is one camera image plus capture metadata.
type Frame struct {
	Index    int
	Image    *imgproc.Image
	Truths   []dataset.Annotation
	Altitude float64
}

// SimCamera produces procedurally generated aerial frames, standing in for
// the UAV's on-board camera.
type SimCamera struct {
	Config dataset.SceneConfig
	Frames int

	rng  *tensor.RNG
	next int
}

// NewSimCamera creates a deterministic simulated camera. Distinct seeds
// yield distinct frame sequences (tensor.NewRNG remaps the one degenerate
// zero seed itself), so callers can derive per-camera seeds as base+i.
func NewSimCamera(cfg dataset.SceneConfig, frames int, seed uint64) *SimCamera {
	return &SimCamera{Config: cfg, Frames: frames, rng: tensor.NewRNG(seed)}
}

// Next returns the next frame; ok is false once Frames frames were produced.
func (s *SimCamera) Next() (Frame, bool) {
	if s.next >= s.Frames {
		return Frame{}, false
	}
	item := dataset.GenerateScene(s.Config, s.rng)
	f := Frame{Index: s.next, Image: item.Image, Truths: item.Truths, Altitude: item.Altitude}
	s.next++
	return f, true
}
