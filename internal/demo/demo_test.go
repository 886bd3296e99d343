package demo

import "testing"

func TestSceneConfigTightensDefaults(t *testing.T) {
	c := SceneConfig(128)
	if c.Width != 128 || c.Height != 128 {
		t.Fatalf("size = %dx%d", c.Width, c.Height)
	}
	if c.AltMax-c.AltMin > 10 {
		t.Fatal("demo altitude band should be tight")
	}
	if c.TreeProb != 0 {
		t.Fatal("demo scenes should not occlude")
	}
}

func TestNewScaledDroNet(t *testing.T) {
	det, err := NewScaledDroNet(128, 1)
	if err != nil {
		t.Fatal(err)
	}
	if det.Net.InputW != 128 {
		t.Fatalf("input = %d", det.Net.InputW)
	}
	if det.Thresh != 0.2 {
		t.Fatalf("demo threshold = %v", det.Thresh)
	}
	// Scaled: fewer parameters than the full DroNet head-to-head.
	if det.Net.NumParams() >= 25702 {
		t.Fatalf("scaled DroNet has %d params, expected fewer than full", det.Net.NumParams())
	}
	if _, err := NewScaledDroNet(1, 1); err == nil {
		t.Fatal("expected error for absurd size")
	}
}

func TestDemoTrainConfig(t *testing.T) {
	c := DemoTrainConfig(1200, 7, nil)
	if c.Batches != 1200 || c.BatchSize != 4 {
		t.Fatalf("config = %+v", c)
	}
	if c.Aug.FlipProb == 0 || c.Aug.Translate == 0 {
		t.Fatal("demo training must use augmentation (generalization depends on it)")
	}
	if len(c.Steps) != 1 || c.Steps[0] != 1000 {
		t.Fatalf("step schedule = %v", c.Steps)
	}
}
