package tensor

import "math"

var negInf = float32(math.Inf(-1))

// MaxPoolPlane2x2 writes the output plane d, rows of outW, of a 2×2
// max-pool at the given stride over the input plane src of inH rows of inW:
// output row oh takes the max2x2 of each window of input rows oh·stride and
// oh·stride+1 (the same row for a window clipped by the bottom edge) at
// columns ow·stride and ow·stride+1 (the last column alone for a window
// clipped by the right edge, re-read, which cannot change a maximum).
// layers.MaxPool's 2×2 inference pass runs it plane by plane, and
// ConvPool2x2Prepacked pools its bands of conv rows through the same code.
func MaxPoolPlane2x2(src []float32, inH, inW int, d []float32, outW, stride int) {
	poolPlane2x2(currentKernels().maxPool2x2, src, inH, inW, d, outW, stride)
}

// poolPlane2x2 is MaxPoolPlane2x2 on the family's maxPool2x2 kernel vec
// (nil: none). A stride-2 row with a vector kernel takes eight outputs per
// step. VMAXPS answers its second operand on a NaN or a tie of zeros, so
// the kernel hands a block back when any of its 32 inputs is NaN or any of
// its maxima is ±0 or −Inf — exactly the windows where VMAXPS and max2x2
// can differ — and that block takes max2x2 before the kernel resumes. Other
// strides, a row's last fewer-than-eight outputs and the clipped last
// column stay scalar, as does every row on the portable family.
func poolPlane2x2(vec func(r0, r1, d []float32) int, src []float32, inH, inW int, d []float32, outW, stride int) {
	// Only the last output column's window can be clipped, and then to the
	// last input column alone.
	full := outW
	if (outW-1)*stride+1 >= inW {
		full--
	}
	if stride != 2 {
		vec = nil
	}
	for oh := 0; oh < len(d)/outW; oh++ {
		h0 := oh * stride
		h1 := min(h0+1, inH-1)
		r0, r1 := src[h0*inW:(h0+1)*inW], src[h1*inW:(h1+1)*inW]
		dr := d[oh*outW : (oh+1)*outW]
		for ow := 0; ow < full; {
			end := full
			if vec != nil {
				if full-ow >= 8 {
					ow += vec(r0[2*ow:], r1[2*ow:], dr[ow:full])
				}
				end = min(ow+8, full)
			}
			for ; ow < end; ow++ {
				i := ow * stride
				dr[ow] = max2x2(r0[i], r0[i+1], r1[i], r1[i+1])
			}
		}
		if full < outW {
			dr[full] = max2x2(r0[inW-1], r0[inW-1], r1[inW-1], r1[inW-1])
		}
	}
}

// max2x2 is the generic window loop's maximum (layers.MaxPool) for one
// row-major 2×2 window: the first element, in scan order, that no other
// exceeds, with NaNs never selected and 0 for a window holding nothing above
// -Inf. The comparisons mispredict on every other window, so the common case
// goes through Go's branch-free min (one negated min tree: max compiles to a
// negated min per call). min propagates NaN and orders -0 below +0, so its
// answer is taken only when it is a non-zero number above -Inf — then every
// maximal element has the same bits and scan order cannot matter; the rare
// rest (a NaN, a ±0 or a -Inf result) is rescanned exactly.
func max2x2(a, b, c, d float32) float32 {
	if r := -min(min(-a, -b), min(-c, -d)); r > negInf && r != 0 {
		return r
	}
	best := negInf
	for _, v := range [4]float32{a, b, c, d} {
		if v > best {
			best = v
		}
	}
	if best == negInf {
		return 0
	}
	return best
}
