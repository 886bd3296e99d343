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
func regionDets(seed uint64) []Detection { return regionGridDets(8, seed) }

// regionGridDets is regionDets on a cells×cells grid, with anchor sides that
// scale with the cell as the region layer's do: cells 2 and 3 are the
// quarter-scale model's 20 and 45 candidates at 64² and 96².
func regionGridDets(cells int, seed uint64) []Detection {
	rng := tensor.NewRNG(seed)
	n := float64(cells)
	dets := make([]Detection, 0, 5*cells*cells)
	for cy := 0; cy < cells; cy++ {
		for cx := 0; cx < cells; cx++ {
			for a := 0; a < 5; a++ {
				side := 0.96 * float64(a+1) / n
				dets = append(dets, Detection{
					Box: Box{
						X: (float64(cx) + rng.Float64()) / n, Y: (float64(cy) + rng.Float64()) / n,
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
// threshold on a busy frame, over DroNet's 320 region candidates, and over
// the quarter-scale model's 20 and 45.
func BenchmarkNMS(b *testing.B) {
	for _, c := range []struct {
		name string
		dets []Detection
	}{
		{"random300", randDets(300, 1)},
		{"region320", regionDets(1)},
		{"region45", regionGridDets(3, 1)},
		{"region20", regionGridDets(2, 1)},
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
