// Package demo provides a quickly trainable, filter-scaled DroNet, its
// training recipe and the matching close-up scene configuration. The
// training sweep (cmd/dronet-sweep) and the root benchmarks use it: reduced
// input resolution, halved filter counts and low-altitude scenes whose
// vehicles span about one grid cell make a training run converge in seconds
// on a laptop.
package demo

import (
	"io"

	"repro/internal/augment"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/models"
	"repro/internal/train"
)

// SceneConfig returns the close-up scene configuration the demo detector is
// trained for, at the given image resolution: a tight altitude band so the
// vehicles span about one grid cell, moderate density, and reduced nuisance
// variation so a laptop-budget training run converges.
func SceneConfig(size int) dataset.SceneConfig {
	c := dataset.DefaultConfig(size)
	c.AltMin, c.AltMax = 15, 20
	c.VehiclesMin, c.VehiclesMax = 2, 5
	c.TreeProb = 0
	c.NoiseStd = 0.01
	c.IllumMin, c.IllumMax = 0.85, 1.15
	return c
}

// NewScaledDroNet builds a half-filter DroNet at the given input size.
func NewScaledDroNet(size int, seed uint64) (*core.Detector, error) {
	text, err := models.Cfg(models.DroNet, size)
	if err != nil {
		return nil, err
	}
	scaled, err := models.Scale(text, 0.5)
	if err != nil {
		return nil, err
	}
	det, err := core.NewDetectorFromCfg("dronet-demo", scaled, seed)
	if err != nil {
		return nil, err
	}
	det.Thresh = 0.2
	return det, nil
}

// DemoTrainConfig is the shared demo-scale training recipe: flips and
// translations (without them a small synthetic set is memorized rather than
// learned), a BN-friendly learning rate, and a step decay at 5/6 of the
// budget.
func DemoTrainConfig(batches int, seed uint64, log io.Writer) train.Config {
	return train.Config{
		Batches: batches, BatchSize: 4,
		LR: 0.015, Momentum: 0.9, Decay: 0.0005,
		BurnIn: batches / 25, Steps: []int{batches * 5 / 6}, Scales: []float64{0.1},
		Aug:  augment.Config{FlipProb: 0.5, Translate: 0.15, Saturation: 0.3, Exposure: 0.3},
		Seed: seed, Log: log, LogEvery: 200,
	}
}
