package main

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/imgproc"
	"repro/internal/pipeline"
	"repro/internal/serve"
)

// TestBuildEntryLoadsWeights: the single-model flags' "default" spec built
// with a weights path serves the saved weights, not buildEntry's own seed-1
// initialisation.
func TestBuildEntryLoadsWeights(t *testing.T) {
	const size, scale = 64, 0.25
	saved, err := core.NewScaledDetector("dronet", size, scale, 2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "seed2.weights")
	if err := saved.SaveWeights(path); err != nil {
		t.Fatal(err)
	}
	specs, err := serve.ParseModelSpecs("default=dronet:64:fp32")
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.Config{Workers: 1, Thresh: 0.05}

	cam := pipeline.NewSimCamera(dataset.DefaultConfig(size), 1, 3)
	f, ok := cam.Next()
	if !ok {
		t.Fatal("camera produced no frame")
	}
	run := func(e *engine.Engine) []detect.Detection {
		t.Helper()
		defer e.Free()
		dets, err := e.ExecuteBatch(0, []*imgproc.Image{f.Image}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return dets[0]
	}

	wcfg := cfg
	wcfg.NMSThresh = saved.NMSThresh
	ref, err := engine.New(saved.Model(), wcfg)
	if err != nil {
		t.Fatal(err)
	}
	want := run(ref)
	if len(want) == 0 {
		t.Fatal("the seed-2 model detects nothing on the frame; the comparison would be vacuous")
	}

	loaded, err := buildEntry(specs[0], path, scale, 1, cfg, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Name != "default" || loaded.Config.Precision != "fp32" {
		t.Errorf("entry = %q/%q, want default/fp32", loaded.Name, loaded.Config.Precision)
	}
	if got := run(loaded.Engine); !reflect.DeepEqual(got, want) {
		t.Errorf("entry built with the weights path detects %d boxes unlike the saved model's %d", len(got), len(want))
	}

	fresh, err := buildEntry(specs[0], "", scale, 1, cfg, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := run(fresh.Engine); reflect.DeepEqual(got, want) {
		t.Error("entry built without weights detects exactly what the seed-2 model does; the test cannot tell them apart")
	}
}
