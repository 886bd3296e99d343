package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/imgproc"
	"repro/internal/models"
)

// dataCmd generates a synthetic top-view aerial vehicle dataset to disk in
// Darknet layout (img_NNNN.png + img_NNNN.txt labels), standing in for the
// paper's hand-collected 350-image dataset.
//
// Usage:
//
//	dronet data -out data/train -n 350 -size 512 -seed 1
func dataCmd(fs *flag.FlagSet) func(io.Writer) error {
	out := fs.String("out", "data", "output directory")
	n := fs.Int("n", 350, "number of images (the paper collected 350)")
	size := fs.Int("size", 512, "image resolution")
	seed := fs.Uint64("seed", 1, "generator seed")
	altMin := fs.Float64("alt-min", 30, "minimum UAV altitude (m)")
	altMax := fs.Float64("alt-max", 80, "maximum UAV altitude (m)")
	vehMin := fs.Int("veh-min", 6, "minimum vehicles per scene")
	vehMax := fs.Int("veh-max", 18, "maximum vehicles per scene")
	trees := fs.Float64("tree-prob", 0.25, "per-vehicle occluder probability")
	return func(w io.Writer) error {
		cfg := dataset.DefaultConfig(*size)
		cfg.AltMin, cfg.AltMax = *altMin, *altMax
		cfg.VehiclesMin, cfg.VehiclesMax = *vehMin, *vehMax
		cfg.TreeProb = *trees

		ds := dataset.Generate(cfg, *n, *seed)
		if err := ds.Save(*out); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s to %s (Darknet layout)\n", ds.Stats(), *out)
		return nil
	}
}

// trainCmd trains one of the paper's models on a dataset directory
// produced by `dronet data` (or on freshly generated scenes with -synth),
// then writes the trained weights.
//
// Usage:
//
//	dronet train -model dronet -size 128 -scale 0.5 -synth 48 -batches 400 -out dronet.weights
//	dronet train -model dronet -size 512 -data data/train -out dronet.weights
func trainCmd(fs *flag.FlagSet) func(io.Writer) error {
	model := fs.String("model", models.DroNet, "model name")
	size := fs.Int("size", 512, "network input resolution")
	scale := fs.Float64("scale", 1.0, "filter-count scale for the reduced-resolution study")
	data := fs.String("data", "", "dataset directory (from dronet data)")
	synth := fs.Int("synth", 0, "generate this many synthetic scenes instead of loading -data")
	batches := fs.Int("batches", 0, "training batches (default: model's max_batches)")
	batchSize := fs.Int("batch", 0, "mini-batch size (default: model's batch)")
	lr := fs.Float64("lr", 0, "learning rate (default: model's)")
	seed := fs.Uint64("seed", 1, "initialization/shuffle seed")
	out := fs.String("out", "model.weights", "output weights path")
	return func(w io.Writer) error {
		det, err := core.NewScaledDetector(*model, *size, *scale, *seed)
		if err != nil {
			return err
		}

		var ds *dataset.Dataset
		switch {
		case *synth > 0:
			ds = dataset.Generate(dataset.DefaultConfig(*size), *synth, *seed+100)
		case *data != "":
			if ds, err = dataset.Load(*data); err != nil {
				return err
			}
		default:
			return errors.New("provide -data DIR or -synth N")
		}
		fmt.Fprintln(w, "dataset:", ds.Stats())

		tc := det.DefaultTrainConfig()
		tc.Seed = *seed
		tc.Log = w
		if *batches > 0 {
			tc.Batches = *batches
		}
		if *batchSize > 0 {
			tc.BatchSize = *batchSize
		}
		if *lr > 0 {
			tc.LR = *lr
		}
		res, err := det.TrainOn(ds, tc)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "trained %d batches, final loss %.4f (avg %.4f)\n", res.Batches, res.FinalLoss, res.AvgLoss)
		m, err := det.EvaluateOn(ds)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "training-set metrics:", m)
		if err := det.SaveWeights(*out); err != nil {
			return err
		}
		fmt.Fprintln(w, "weights written to", *out)
		return nil
	}
}

// detectCmd runs a trained detector over a PNG image or a directory of
// PNGs, optionally applies the §III.D altitude size gate, and writes
// annotated copies with detection boxes.
//
// Usage:
//
//	dronet detect -model dronet -size 128 -scale 0.5 -weights dronet.weights \
//	    -in data/val -out detections -altitude 50
func detectCmd(fs *flag.FlagSet) func(io.Writer) error {
	model := fs.String("model", models.DroNet, "model name")
	size := fs.Int("size", 512, "network input resolution")
	scale := fs.Float64("scale", 1.0, "filter-count scale used at training time")
	weightsPath := fs.String("weights", "", "trained weights file")
	in := fs.String("in", "", "input PNG or directory of PNGs")
	out := fs.String("out", "detections", "output directory for annotated images")
	thresh := fs.Float64("thresh", 0.24, "detection confidence threshold")
	altitude := fs.Float64("altitude", 0, "UAV altitude in metres (0 disables the size gate)")
	return func(w io.Writer) error {
		if *in == "" {
			return errors.New("provide -in IMAGE_OR_DIR")
		}
		det, err := core.NewScaledDetector(*model, *size, *scale, 1)
		if err != nil {
			return err
		}
		det.Thresh = *thresh
		if *weightsPath != "" {
			if err := det.LoadWeights(*weightsPath); err != nil {
				return err
			}
		} else {
			fmt.Fprintf(fs.Output(), "%s: warning: no -weights given, using random initialization\n", fs.Name())
		}

		paths, err := collectPNGs(*in)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
		gate := detect.NewVehicleAltitudeFilter()
		total := 0
		for _, p := range paths {
			img, err := imgproc.LoadPNG(p)
			if err != nil {
				return err
			}
			dets, err := det.DetectImage(img)
			if err != nil {
				return err
			}
			if *altitude > 0 {
				if dets, err = gate.Apply(dets, *altitude); err != nil {
					return err
				}
			}
			annotated := img.Clone()
			for _, d := range dets {
				annotated.DrawBox(d.Box, 2, 1, 0.1, 0.1)
			}
			dst := filepath.Join(*out, filepath.Base(p))
			if err := annotated.SavePNG(dst); err != nil {
				return err
			}
			fmt.Fprintf(w, "%s: %d vehicles -> %s\n", filepath.Base(p), len(dets), dst)
			total += len(dets)
		}
		fmt.Fprintf(w, "%d images, %d vehicles total\n", len(paths), total)
		return nil
	}
}

// collectPNGs returns in itself when it is a file, else the .png files
// directly inside the directory in.
func collectPNGs(in string) ([]string, error) {
	info, err := os.Stat(in)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return []string{in}, nil
	}
	entries, err := os.ReadDir(in)
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".png") {
			paths = append(paths, filepath.Join(in, e.Name()))
		}
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no PNG files in %s", in)
	}
	return paths, nil
}
