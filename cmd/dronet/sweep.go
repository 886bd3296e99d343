package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/demo"
	"repro/internal/eval"
	"repro/internal/models"
	"repro/internal/network"
	"repro/internal/platform"
	"repro/internal/tensor"
	"repro/internal/train"
	"repro/internal/weights"
)

// sizeMap pairs each paper input size with its scaled-study size.
var sizeMap = [][2]int{{352, 96}, {416, 112}, {480, 128}, {544, 144}, {608, 160}}

// studyScale gives each model the filter-count scale, stem floor, training
// batches and learning rate used by the accuracy arm. Scales are chosen so
// each scaled model trains in comparable wall-clock time on one CPU core
// while preserving the paper's capacity ordering: TinyYoloVoc keeps by far
// the most filters (with a floor of 8 so its stem stays viable), while
// SmallYoloV3 keeps its too-thin stem — the paper attributes its -53%
// sensitivity exactly to that over-aggressive weight reduction. The wide
// variants need a lower learning rate than the thin ones.
var studyScale = map[string]struct {
	factor  float64
	floor   int
	batches int
	lr      float64
}{
	models.TinyYoloVoc: {0.15, 8, 1500, 0.004},
	models.TinyYoloNet: {0.20, 8, 1500, 0.008},
	models.SmallYoloV3: {0.50, 2, 1800, 0.015},
	models.DroNet:      {0.50, 2, 1800, 0.015},
}

// trainSize is the scaled input resolution every model trains at; the
// trained weights are then evaluated at each study size (YOLO networks are
// fully convolutional, so weights transfer across input resolutions — the
// same multi-scale property Darknet itself exploits).
const trainSize = 128

type cell struct {
	model      string
	paperSize  int
	metrics    eval.Metrics // FPS from platform model; accuracy from scaled study
	normalized eval.Metrics
}

// sweepCmd regenerates the paper's parameter-space exploration: Fig. 3
// (normalized FPS / IoU / Sensitivity / Precision for each model across
// input sizes) and Fig. 4 (the weighted composite Score of eq. 3).
//
// The FPS arm always uses the full-size networks on the platform model. The
// accuracy arm trains each model's proportionally scaled variant
// (models.ScaleWithFloor at studyScale's factor and floor) once at scaled
// size 128 and evaluates the same weights across the scaled sizes
// {96..160} that map to the paper's {352..608}, so the whole
// sweep runs on a laptop-class CPU. Pass -train to run the accuracy arm;
// without it the harness prints the FPS-only table.
//
// Usage:
//
//	dronet sweep                     # FPS arm only, all models × sizes
//	dronet sweep -train              # full Fig. 3 + Fig. 4 (trains 4 models, ~15 min)
//	dronet sweep -train -quick -batches 600  # shorter budget, 3 sizes
func sweepCmd(fs *flag.FlagSet) func(io.Writer) error {
	doTrain := fs.Bool("train", false, "run the scaled-training accuracy arm")
	quick := fs.Bool("quick", false, "3 sizes instead of 5 and a shorter training budget")
	batches := fs.Int("batches", 0, "cap on training batches per model (0 = per-model default)")
	platName := fs.String("platform", "i5", "platform for the FPS arm")
	seed := fs.Uint64("seed", 1, "seed")
	return func(w io.Writer) error {
		plat, err := platform.ByName(*platName)
		if err != nil {
			return err
		}
		sizes := sizeMap
		if *quick {
			sizes = [][2]int{{352, 96}, {480, 128}, {608, 160}}
			if *batches > 1200 {
				*batches = 1200
			}
		}

		// Scaled-study data: close-up scenes whose vehicles span ≈1 grid cell,
		// the same anchor regime the full-size models see on real footage.
		var trainSet, valSet *dataset.Dataset
		if *doTrain {
			trainSet = dataset.Generate(demo.SceneConfig(160), 64, *seed+10)
			valSet = dataset.Generate(demo.SceneConfig(160), 16, *seed+20)
			fmt.Fprintf(w, "scaled study data: train %s | val %s\n\n", trainSet.Stats(), valSet.Stats())
		}

		var cells []cell
		for _, name := range models.Names() {
			// Accuracy arm: one training run per model at trainSize, then
			// multi-scale evaluation of the same weights.
			var trained *network.Network
			if *doTrain {
				if trained, err = trainScaled(w, name, *batches, *seed, trainSet); err != nil {
					return err
				}
			}
			for _, sz := range sizes {
				c := cell{model: name, paperSize: sz[0]}
				full, _, err := models.Build(name, sz[0], tensor.NewRNG(*seed))
				if err != nil {
					return err
				}
				c.metrics.FPS = plat.Predict(full).FPS
				if *doTrain {
					acc, err := evalAtSize(name, trained, sz[1], *seed, valSet)
					if err != nil {
						return err
					}
					c.metrics.MeanIoU = acc.MeanIoU
					c.metrics.Sensitivity = acc.Sensitivity
					c.metrics.Precision = acc.Precision
					fmt.Fprintf(w, "  %-12s paper-size %d (scaled %d): %v\n", name, sz[0], sz[1], acc)
				}
				cells = append(cells, c)
			}
		}

		// Normalize across all cells, as the paper does for Fig. 3.
		all := make([]eval.Metrics, len(cells))
		for i, c := range cells {
			all[i] = c.metrics
		}
		norm := eval.Normalize(all)
		for i := range cells {
			cells[i].normalized = norm[i]
		}

		fmt.Fprintln(w, "\n=== Fig. 3: normalized metrics per model and input size ===")
		fmt.Fprintf(w, "platform for FPS arm: %s\n", plat.Name)
		fmt.Fprintf(w, "%-14s %6s %8s %8s %8s %8s\n", "model", "size", "FPS", "IoU", "Sens", "Prec")
		for _, c := range cells {
			fmt.Fprintf(w, "%-14s %6d %8.3f %8.3f %8.3f %8.3f\n",
				c.model, c.paperSize, c.normalized.FPS, c.normalized.MeanIoU,
				c.normalized.Sensitivity, c.normalized.Precision)
		}

		if *doTrain {
			fmt.Fprintln(w, "\n=== Fig. 4: weighted Score (w = 0.4 FPS, 0.2 IoU, 0.2 Sens, 0.2 Prec) ===")
			type best struct {
				size  int
				score float64
			}
			bestPer := map[string]best{}
			for _, c := range cells {
				s := eval.Score(eval.PaperWeights, c.normalized)
				fmt.Fprintf(w, "%-14s %6d  score %.3f\n", c.model, c.paperSize, s)
				if b, ok := bestPer[c.model]; !ok || s > b.score {
					bestPer[c.model] = best{c.paperSize, s}
				}
			}
			fmt.Fprintln(w, "\nbest configuration per model:")
			winner, winScore := "", -1.0
			for _, name := range models.Names() {
				b := bestPer[name]
				fmt.Fprintf(w, "%-14s @%d  score %.3f\n", name, b.size, b.score)
				if b.score > winScore {
					winner, winScore = fmt.Sprintf("%s @%d", name, b.size), b.score
				}
			}
			fmt.Fprintf(w, "\nselected model (highest score): %s\n", winner)
		}
		return nil
	}
}

// buildScaled constructs the filter-scaled study variant of a model at the
// given input size.
func buildScaled(name string, size int, seed uint64) (*network.Network, error) {
	sc := studyScale[name]
	text, err := models.Cfg(name, size)
	if err != nil {
		return nil, err
	}
	scaled, err := models.ScaleWithFloor(text, sc.factor, sc.floor)
	if err != nil {
		return nil, err
	}
	det, err := core.NewDetectorFromCfg(name, scaled, seed)
	if err != nil {
		return nil, err
	}
	return det.Net, nil
}

// trainScaled trains a model's study variant once at trainSize.
func trainScaled(w io.Writer, name string, batchCap int, seed uint64, trainSet *dataset.Dataset) (*network.Network, error) {
	sc := studyScale[name]
	batches := sc.batches
	if batchCap > 0 && batches > batchCap {
		batches = batchCap
	}
	net, err := buildScaled(name, trainSize, seed)
	if err != nil {
		return nil, err
	}
	c := demo.DemoTrainConfig(batches, seed, nil)
	c.LR = sc.lr
	fmt.Fprintf(w, "training %s study variant (%d batches, lr %g)...\n", name, batches, sc.lr)
	if _, err := train.Run(net, trainSet, c); err != nil {
		return nil, err
	}
	return net, nil
}

// evalAtSize transfers the trained weights into the same architecture at a
// different input resolution and evaluates on the validation set.
func evalAtSize(name string, trained *network.Network, size int, seed uint64, valSet *dataset.Dataset) (eval.Metrics, error) {
	net := trained
	if size != trainSize {
		resized, err := buildScaled(name, size, seed)
		if err != nil {
			return eval.Metrics{}, err
		}
		var buf bytes.Buffer
		if err := weights.Save(trained, &buf); err != nil {
			return eval.Metrics{}, err
		}
		if err := weights.Load(resized, &buf); err != nil {
			return eval.Metrics{}, err
		}
		net = resized
	}
	return train.Evaluate(net, valSet, 0.2, 0.45)
}
