package detect

import (
	"testing"

	"repro/internal/tensor"
)

func randDets(n int, seed uint64) []Detection {
	rng := tensor.NewRNG(seed)
	dets := make([]Detection, n)
	for i := range dets {
		dets[i] = Detection{
			Box:   Box{X: rng.Float64(), Y: rng.Float64(), W: rng.Range(0.02, 0.15), H: rng.Range(0.02, 0.15)},
			Score: rng.Float64(),
		}
	}
	return dets
}

// regionDets mimics DroNet's region output on a 256×256 frame: an 8×8 grid
// of cells × 5 anchors = 320 candidates, each box near its cell centre with
// an anchor-sized extent, so neighbours overlap the way a real decode does
// (164 survive at 0.45, against 165 on a DroNet frame).
func regionDets(seed uint64) []Detection {
	rng := tensor.NewRNG(seed)
	dets := make([]Detection, 0, 320)
	for cy := 0; cy < 8; cy++ {
		for cx := 0; cx < 8; cx++ {
			for a := 0; a < 5; a++ {
				side := 0.12 * float64(a+1)
				dets = append(dets, Detection{
					Box: Box{
						X: (float64(cx) + rng.Float64()) / 8, Y: (float64(cy) + rng.Float64()) / 8,
						W: side * rng.Range(0.7, 1.3), H: side * rng.Range(0.7, 1.3),
					},
					Score: rng.Float64(),
				})
			}
		}
	}
	return dets
}

// BenchmarkNMS measures suppression over a few hundred random boxes above
// threshold on a busy frame, and over DroNet's 320 region candidates.
func BenchmarkNMS(b *testing.B) {
	for _, c := range []struct {
		name string
		dets []Detection
	}{
		{"random300", randDets(300, 1)},
		{"region320", regionDets(1)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			kept := 0
			for b.Loop() {
				kept = len(NMS(c.dets, 0.45))
			}
			b.ReportMetric(float64(kept), "kept")
		})
	}
}

// BenchmarkIoU measures the core geometric primitive.
func BenchmarkIoU(b *testing.B) {
	x := Box{X: 0.5, Y: 0.5, W: 0.1, H: 0.1}
	y := Box{X: 0.52, Y: 0.49, W: 0.11, H: 0.1}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += IoU(x, y)
	}
	_ = sink
}

// BenchmarkAltitudeFilter measures the §III.D size gate on a raw decode.
func BenchmarkAltitudeFilter(b *testing.B) {
	f := NewVehicleAltitudeFilter()
	dets := randDets(300, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Apply(dets, 50); err != nil {
			b.Fatal(err)
		}
	}
}
