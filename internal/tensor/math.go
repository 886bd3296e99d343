package tensor

import "math"

// LeakySlope is the negative-region slope used by all leaky-ReLU
// activations in the framework, matching Darknet's 0.1.
const LeakySlope = 0.1

// Sigmoid returns the logistic function of x.
func Sigmoid(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}

// SigmoidGrad returns dσ/dx given y = σ(x).
func SigmoidGrad(y float32) float32 { return y * (1 - y) }

// leakyFactor is the leaky-ReLU multiplier indexed by the sign bit. Scaling
// by it replaces the data-dependent `v < 0` branch, which mispredicts on
// every other activation: v·1 is exact, and −0 (whose sign bit selects the
// slope) stays −0, so the result equals the branchy form bit for bit.
var leakyFactor = [2]float32{1, LeakySlope}

// Leaky applies the leaky-ReLU activation in place.
func Leaky(x []float32) {
	for i, v := range x {
		x[i] = v * leakyFactor[math.Float32bits(v)>>31]
	}
}

// LeakyGrad multiplies grad by the leaky-ReLU derivative evaluated at the
// pre-activation sign, which equals the sign of the activated output.
func LeakyGrad(out, grad []float32) {
	for i, v := range out {
		if v < 0 {
			grad[i] *= LeakySlope
		}
	}
}

// Softmax writes the softmax of src into dst using the max-subtraction
// trick for numerical stability. len(dst) must equal len(src).
func Softmax(src, dst []float32) {
	maxv := src[0]
	for _, v := range src[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range src {
		e := math.Exp(float64(v - maxv))
		dst[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range dst {
		dst[i] *= inv
	}
}
