package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// dronet runs one in-process invocation and returns its exit code, stdout
// and stderr.
func dronet(args ...string) (int, string, string) {
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// mustRun runs an invocation that must succeed and returns its stdout.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	code, out, errOut := dronet(args...)
	if code != 0 {
		t.Fatalf("dronet %s: exit %d\nstderr: %s", strings.Join(args, " "), code, errOut)
	}
	return out
}

func wantLines(t *testing.T, out string, lines ...string) {
	t.Helper()
	for _, l := range lines {
		if !strings.Contains(out, l+"\n") {
			t.Errorf("output lacks line %q:\n%s", l, out)
		}
	}
}

func TestArch(t *testing.T) {
	out := mustRun(t, "arch")
	wantLines(t, out,
		"dronet  (input 416x416x3)",
		"total: 6943.9 MFLOPs, 15764398 params",
		"total: 241.8 MFLOPs, 25702 params")
	if n := strings.Count(out, "\ntotal: "); n != 4 {
		t.Errorf("%d model summaries, want 4", n)
	}
	if out := mustRun(t, "arch", "-model", "dronet", "-size", "512"); strings.Count(out, "\ntotal: ") != 1 ||
		!strings.Contains(out, "dronet  (input 512x512x3)") {
		t.Errorf("arch -model dronet -size 512:\n%s", out)
	}
}

func TestPlatformBreakdown(t *testing.T) {
	out := mustRun(t, "platform", "-breakdown")
	wantLines(t, out,
		"Predicted FPS at input 512x512 (calibrated roofline model)",
		"dronet                                 9.31                         8.40                         5.35",
		"Odroid-XU4 (Exynos 5422): DroNet 79x, TinyYoloNet 31x, SmallYoloV3 125x faster than TinyYoloVoc")
	if n := strings.Count(out, " FPS\n"); n != 12 {
		t.Errorf("%d per-layer tables, want 4 models × 3 platforms", n)
	}
	var heads []string // "<model> on <platform>", one a table
	for _, l := range strings.Split(out, "\n") {
		if model, _, ok := strings.Cut(l, " on "); ok && model != "" && !strings.Contains(model, " ") {
			heads = append(heads, l)
		}
	}
	if len(heads) != 12 || heads[0] != "tinyyolovoc on Intel i5-2520M @3.2GHz" || heads[11] != "dronet on Raspberry Pi 3 (Cortex-A53)" {
		t.Errorf("per-layer tables out of table order: %q", heads)
	}
	out = mustRun(t, "platform", "-platform", "odroid", "-model", "dronet", "-breakdown")
	wantLines(t, out, "dronet on Odroid-XU4 (Exynos 5422)", "total 119.1 ms → 8.40 FPS")
	if strings.Contains(out, "faster than") {
		t.Errorf("speedup ratios printed for a one-model table:\n%s", out)
	}
}

func TestSweepFPSArm(t *testing.T) {
	out := mustRun(t, "sweep")
	wantLines(t, out,
		"platform for FPS arm: Intel i5-2520M @3.2GHz",
		"tinyyolovoc       352    0.025    0.000    0.000    0.000")
	rows := 0
	for _, l := range strings.Split(out, "\n") {
		if strings.HasSuffix(l, "    0.000    0.000    0.000") {
			rows++
		}
	}
	if rows != 20 {
		t.Errorf("%d Fig. 3 rows, want 4 models × 5 sizes:\n%s", rows, out)
	}
	if strings.Contains(out, "Fig. 4") {
		t.Error("Fig. 4 printed without -train")
	}
}

// TestSweepTrainQuick runs the accuracy arm on a token budget: every model
// trains at the scaled size and is evaluated at three transferred sizes.
func TestSweepTrainQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("trains four models")
	}
	out := mustRun(t, "sweep", "-train", "-quick", "-batches", "1")
	if n := strings.Count(out, " paper-size "); n != 12 {
		t.Errorf("%d evaluated cells, want 4 models × 3 sizes:\n%s", n, out)
	}
	wantLines(t, out, "best configuration per model:")
	if !strings.Contains(out, "\nselected model (highest score): ") {
		t.Errorf("no selected model:\n%s", out)
	}
}

// TestDataTrainDetect runs the pipeline end to end at a tiny size: a
// dataset, weights trained on synthetic scenes, and detection over the
// dataset with those weights.
func TestDataTrainDetect(t *testing.T) {
	dir := t.TempDir()
	data, weights, annotated := filepath.Join(dir, "data"), filepath.Join(dir, "w"), filepath.Join(dir, "out")

	out := mustRun(t, "data", "-out", data, "-n", "2", "-size", "64")
	if !strings.HasPrefix(out, "wrote 2 images, ") || !strings.HasSuffix(out, " to "+data+" (Darknet layout)\n") {
		t.Errorf("data: %q", out)
	}
	for _, f := range []string{"img_0000.png", "img_0000.txt", "img_0001.png", "img_0001.txt"} {
		if _, err := os.Stat(filepath.Join(data, f)); err != nil {
			t.Error(err)
		}
	}

	out = mustRun(t, "train", "-size", "64", "-scale", "0.25", "-synth", "4", "-batches", "2", "-out", weights)
	wantLines(t, out, "weights written to "+weights)
	if !strings.Contains(out, "\ntrained 2 batches, final loss ") || !strings.Contains(out, "\ntraining-set metrics: IoU ") {
		t.Errorf("train:\n%s", out)
	}
	if _, err := os.Stat(weights); err != nil {
		t.Fatal(err)
	}

	code, out, errOut := dronet("detect", "-size", "64", "-scale", "0.25", "-weights", weights, "-in", data, "-out", annotated)
	if code != 0 || errOut != "" {
		t.Fatalf("detect: exit %d, stderr %q", code, errOut)
	}
	if !strings.HasPrefix(out, "img_0000.png: ") || !strings.Contains(out, " vehicles -> "+filepath.Join(annotated, "img_0001.png")+"\n2 images, ") ||
		!strings.HasSuffix(out, " vehicles total\n") {
		t.Errorf("detect:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(annotated, "img_0001.png")); err != nil {
		t.Error(err)
	}
}

func TestDispatch(t *testing.T) {
	for _, args := range [][]string{nil, {"bogus"}, {"-h"}} {
		code, out, errOut := dronet(args...)
		if code != 2 || out != "" || !strings.Contains(errOut, "\n  sweep     ") {
			t.Errorf("dronet %v: exit %d, stdout %q, stderr %q; want exit 2 and the command list", args, code, out, errOut)
		}
	}
	if code, _, errOut := dronet("arch", "-h"); code != 0 || !strings.Contains(errOut, "Usage of dronet arch:") {
		t.Errorf("arch -h: exit %d, stderr %q", code, errOut)
	}
	if code, _, _ := dronet("arch", "-nope"); code != 2 {
		t.Errorf("arch -nope: exit %d, want 2", code)
	}
	if code, _, errOut := dronet("detect"); code != 1 || errOut != "dronet detect: provide -in IMAGE_OR_DIR\n" {
		t.Errorf("detect without -in: exit %d, stderr %q", code, errOut)
	}
}

// TestFlags pins every subcommand's flags and their defaults.
func TestFlags(t *testing.T) {
	want := map[string][]string{
		"arch":     {"model=", "size=416"},
		"data":     {"alt-max=80", "alt-min=30", "n=350", "out=data", "seed=1", "size=512", "tree-prob=0.25", "veh-max=18", "veh-min=6"},
		"train":    {"batch=0", "batches=0", "data=", "lr=0", "model=dronet", "out=model.weights", "scale=1", "seed=1", "size=512", "synth=0"},
		"detect":   {"altitude=0", "in=", "model=dronet", "out=detections", "scale=1", "size=512", "thresh=0.24", "weights="},
		"platform": {"breakdown=false", "model=", "platform=", "size=512"},
		"sweep":    {"batches=0", "platform=i5", "quick=false", "seed=1", "train=false"},
	}
	for _, c := range commands {
		fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
		c.setup(fs)
		var got []string
		fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name+"="+f.DefValue) })
		if !reflect.DeepEqual(got, want[c.name]) {
			t.Errorf("%s flags %v, want %v", c.name, got, want[c.name])
		}
	}
	if len(commands) != len(want) {
		t.Errorf("%d commands, want %d", len(commands), len(want))
	}
}
