// Package models defines the four CNN architectures evaluated in the paper
// — TinyYoloVoc, TinyYoloNet, SmallYoloV3 and DroNet — as Darknet-style cfg
// documents, plus helpers to build them at any input size and to derive the
// proportionally scaled variants used for the reduced-resolution training
// study: Scale multiplies every convolution's filter count except the final
// predictor's, and core.NewScaledDetector builds such a variant at a given
// input size.
//
// Fig. 1/2 of the paper are images, so the exact stacks are reconstructed
// from the paper's stated constraints: nine convolutional layers per model,
// four to six max-pool layers, Tiny-YOLO(VOC) as the baseline, and the
// published workload ratios (TinyYoloNet ≈10× and DroNet ≈30× fewer
// operations than TinyYoloVoc; SmallYoloV3 the fastest of all). The ratios
// are asserted in this package's tests.
package models

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/cfg"
	"repro/internal/network"
	"repro/internal/tensor"
)

// Vehicle-detection anchors in 13×13-grid cell units: near-square priors of
// increasing scale plus two elongated priors for road-aligned vehicles.
const vehicleAnchors = "0.55,0.55, 0.9,0.9, 1.4,1.4, 0.7,1.5, 1.5,0.7"

// header emits the shared [net] section. All models train with the same
// Darknet hyper-parameters the paper inherited from tiny-yolo-voc.
func header(size int) string {
	return fmt.Sprintf(`[net]
width=%d
height=%d
channels=3
batch=8
learning_rate=0.001
momentum=0.9
decay=0.0005
max_batches=4000
steps=2400,3200
scales=0.1,0.1
burn_in=40
`, size, size)
}

func conv(filters, size, stride int, bn bool, act string) string {
	b := 0
	if bn {
		b = 1
	}
	return fmt.Sprintf(`[convolutional]
batch_normalize=%d
filters=%d
size=%d
stride=%d
pad=1
activation=%s
`, b, filters, size, stride, act)
}

func maxpool(size, stride int) string {
	return fmt.Sprintf("[maxpool]\nsize=%d\nstride=%d\n", size, stride)
}

func region() string {
	return fmt.Sprintf(`[region]
anchors=%s
classes=1
num=5
object_scale=5
noobject_scale=1
class_scale=1
coord_scale=1
rescore=1
thresh=0.6
`, vehicleAnchors)
}

// TinyYoloVocCfg is the Tiny-YOLO(VOC) baseline adapted to a single class:
// nine convolutions, six max-pools (the last with stride 1), 1024-filter
// trunk — the paper's accuracy reference and slowest model.
func TinyYoloVocCfg(size int) string {
	return header(size) +
		conv(16, 3, 1, true, "leaky") + maxpool(2, 2) +
		conv(32, 3, 1, true, "leaky") + maxpool(2, 2) +
		conv(64, 3, 1, true, "leaky") + maxpool(2, 2) +
		conv(128, 3, 1, true, "leaky") + maxpool(2, 2) +
		conv(256, 3, 1, true, "leaky") + maxpool(2, 2) +
		conv(512, 3, 1, true, "leaky") + maxpool(2, 1) +
		conv(1024, 3, 1, true, "leaky") +
		conv(1024, 3, 1, true, "leaky") +
		conv(30, 1, 1, false, "linear") +
		region()
}

// TinyYoloNetCfg shrinks every TinyYoloVoc layer by roughly half the
// filters (quarter the per-layer work), yielding ≈10× fewer operations.
func TinyYoloNetCfg(size int) string {
	return header(size) +
		conv(8, 3, 1, true, "leaky") + maxpool(2, 2) +
		conv(16, 3, 1, true, "leaky") + maxpool(2, 2) +
		conv(32, 3, 1, true, "leaky") + maxpool(2, 2) +
		conv(64, 3, 1, true, "leaky") + maxpool(2, 2) +
		conv(128, 3, 1, true, "leaky") + maxpool(2, 2) +
		conv(256, 3, 1, true, "leaky") + maxpool(2, 1) +
		conv(128, 3, 1, true, "leaky") +
		conv(128, 3, 1, true, "leaky") +
		conv(30, 1, 1, false, "linear") +
		region()
}

// SmallYoloV3Cfg is the aggressively pruned variant: the fastest network in
// the study, at the cost of a 53% sensitivity drop (the weight reduction is
// too severe for robust detection).
func SmallYoloV3Cfg(size int) string {
	return header(size) +
		conv(4, 3, 1, true, "leaky") + maxpool(2, 2) +
		conv(8, 3, 1, true, "leaky") + maxpool(2, 2) +
		conv(16, 3, 1, true, "leaky") + maxpool(2, 2) +
		conv(24, 3, 1, true, "leaky") + maxpool(2, 2) +
		conv(32, 3, 1, true, "leaky") + maxpool(2, 2) +
		conv(48, 3, 1, true, "leaky") +
		conv(64, 3, 1, true, "leaky") +
		conv(64, 1, 1, true, "leaky") +
		conv(30, 1, 1, false, "linear") +
		region()
}

// DroNetCfg is the paper's selected architecture: alternating 3×3 feature
// convolutions and 1×1 bottlenecks with five 2×-reducing max-pools, ≈30×
// fewer operations than TinyYoloVoc with only a small accuracy loss.
func DroNetCfg(size int) string {
	return header(size) +
		conv(8, 3, 1, true, "leaky") + maxpool(2, 2) +
		conv(12, 3, 1, true, "leaky") + maxpool(2, 2) +
		conv(8, 1, 1, true, "leaky") +
		conv(24, 3, 1, true, "leaky") + maxpool(2, 2) +
		conv(12, 1, 1, true, "leaky") +
		conv(48, 3, 1, true, "leaky") + maxpool(2, 2) +
		conv(24, 1, 1, true, "leaky") +
		conv(64, 3, 1, true, "leaky") + maxpool(2, 2) +
		conv(30, 1, 1, false, "linear") +
		region()
}

// Name constants for the model registry.
const (
	TinyYoloVoc = "tinyyolovoc"
	TinyYoloNet = "tinyyolonet"
	SmallYoloV3 = "smallyolov3"
	DroNet      = "dronet"
)

// registry maps model names to cfg generators.
var registry = map[string]func(size int) string{
	TinyYoloVoc: TinyYoloVocCfg,
	TinyYoloNet: TinyYoloNetCfg,
	SmallYoloV3: SmallYoloV3Cfg,
	DroNet:      DroNetCfg,
}

// Names returns the registered model names in the paper's presentation
// order.
func Names() []string {
	return []string{TinyYoloVoc, TinyYoloNet, SmallYoloV3, DroNet}
}

// Cfg returns the cfg text for a registered model at the given input size.
func Cfg(name string, size int) (string, error) {
	gen, ok := registry[name]
	if !ok {
		known := Names()
		sort.Strings(known)
		return "", fmt.Errorf("models: unknown model %q (known: %v)", name, known)
	}
	if size < 32 {
		return "", fmt.Errorf("models: input size %d too small", size)
	}
	return gen(size), nil
}

// Build constructs a runnable network for a registered model.
func Build(name string, size int, rng *tensor.RNG) (*network.Network, *cfg.Hyper, error) {
	text, err := Cfg(name, size)
	if err != nil {
		return nil, nil, err
	}
	def, err := cfg.ParseString(text)
	if err != nil {
		return nil, nil, err
	}
	return cfg.Build(name, def, rng)
}

// Scale derives the reduced variant of a model definition used by the
// scaled-training study: filter counts of every convolution except the
// final 30-channel predictor are multiplied by factor (minimum 2 filters).
// The input size is set explicitly by the caller via Cfg/size.
func Scale(text string, factor float64) (string, error) {
	return ScaleWithFloor(text, factor, 2)
}

// ScaleWithFloor is Scale with an explicit minimum filter count. A floor of
// ~8 keeps the early layers of heavily scaled models (e.g. TinyYoloVoc at
// factor 0.15) viable as feature stems; without it the stem collapses to
// 2-3 channels and the model cannot learn at all.
func ScaleWithFloor(text string, factor float64, floor int) (string, error) {
	if floor < 1 {
		return "", fmt.Errorf("models: filter floor must be >= 1, got %d", floor)
	}
	def, err := cfg.ParseString(text)
	if err != nil {
		return "", err
	}
	for _, s := range def.Sections {
		if s.Type != "convolutional" && s.Type != "conv" {
			continue
		}
		f, err := s.Int("filters", 0)
		if err != nil {
			return "", err
		}
		if f == 30 {
			continue // detection head width is fixed by anchors × (5+classes)
		}
		nf := int(float64(f) * factor)
		if nf < floor {
			nf = floor
		}
		s.Set("filters", strconv.Itoa(nf))
	}
	return def.String(), nil
}
