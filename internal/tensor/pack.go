package tensor

// Panel packing for the blocked GEMM driver (see gemm.go). The microkernels
// consume A as MR-interleaved row strips and B as NR-interleaved column
// panels so their inner loop is a pure sequential stream:
//
//	packed A strip:  pa[p*MR + r] = alpha * A(i0+r, kk+p)   (rows zero-padded)
//	packed B panel:  pb[p*NR + c] = B(kk+p, j0+c)           (cols zero-padded)
//
// MR and NR are parameters, not constants: each packer takes the register
// tile of the microkernel family selected at runtime (kernel.go), so the
// same packing code feeds the 4×8 portable kernels and the 6×16 AVX2
// kernels. A packed buffer is therefore only meaningful to the family it was
// packed for — the pre-packed weight caches (prepack.go) record the family
// and fall back to repacking when dispatch changes.
//
// Both packers read through the op(A)/op(B) transpose views, which is what
// lets all four transpose combinations share one blocking driver: the
// transpose is paid once per packed element instead of once per FLOP.
//
// The INT8 packers additionally widen to int16 and interleave consecutive
// k-PAIRS, the operand layout of the pairwise multiply-add microkernels:
//
//	packed A strip:  pa[t*2*MR + 2*r + s] = A(i0+r, kk+2t+s)
//	packed B panel:  pb[t*2*NR + 2*c + s] = B(kk+2t+s, j0+c)
//
// with s in {0,1} the position inside the pair. Odd k is padded with a zero
// k-slot, which is exact for integer accumulation.

// aAt reads op(A)(i, p): A is m×k, stored k-major (lda) when not transposed.
func aAt(ta bool, a []float32, lda, i, p int) float32 {
	if ta {
		return a[p*lda+i]
	}
	return a[i*lda+p]
}

// bAt reads op(B)(p, j): B is k×n, stored n-major (ldb) when not transposed.
func bAt(tb bool, b []float32, ldb, p, j int) float32 {
	if tb {
		return b[j*ldb+p]
	}
	return b[p*ldb+j]
}

// packAF32 packs rows [i0, min(i0+mr, m)) over k-range [kk, kk+kc) of op(A)
// into dst (len mr*kc), folding alpha in and zero-padding missing rows.
func packAF32(ta bool, a []float32, lda, m, i0, kk, kc int, alpha float32, dst []float32, mr int) {
	rows := m - i0
	if rows > mr {
		rows = mr
	}
	if !ta {
		// Rows are contiguous in k: stream each row through the strip.
		for r := 0; r < rows; r++ {
			src := a[(i0+r)*lda+kk:]
			for p := 0; p < kc; p++ {
				dst[p*mr+r] = alpha * src[p]
			}
		}
	} else {
		// op(A) rows are columns of the stored matrix: walk p-major so the
		// stored reads stay sequential per p.
		for p := 0; p < kc; p++ {
			src := a[(kk+p)*lda+i0:]
			d := dst[p*mr:]
			for r := 0; r < rows; r++ {
				d[r] = alpha * src[r]
			}
		}
	}
	if rows < mr {
		for p := 0; p < kc; p++ {
			for r := rows; r < mr; r++ {
				dst[p*mr+r] = 0
			}
		}
	}
}

// packBF32 packs cols [j0, min(j0+nr, n)) over k-range [kk, kk+kc) of op(B)
// into dst (len nr*kc), zero-padding missing columns.
func packBF32(tb bool, b []float32, ldb, n, j0, kk, kc int, dst []float32, nr int) {
	cols := n - j0
	if cols > nr {
		cols = nr
	}
	if !tb {
		if cols == nr {
			// Full-width panels are straight row copies; copy() vectorizes.
			for p := 0; p < kc; p++ {
				copy(dst[p*nr:p*nr+nr], b[(kk+p)*ldb+j0:(kk+p)*ldb+j0+nr])
			}
			return
		}
		for p := 0; p < kc; p++ {
			src := b[(kk+p)*ldb+j0:]
			d := dst[p*nr:]
			for c := 0; c < cols; c++ {
				d[c] = src[c]
			}
			for c := cols; c < nr; c++ {
				d[c] = 0
			}
		}
		return
	}
	// Transposed B: op(B) columns are stored rows, sequential in p.
	for c := 0; c < cols; c++ {
		src := b[(j0+c)*ldb+kk:]
		for p := 0; p < kc; p++ {
			dst[p*nr+c] = src[p]
		}
	}
	for c := cols; c < nr; c++ {
		for p := 0; p < kc; p++ {
			dst[p*nr+c] = 0
		}
	}
}

// packAI8 packs rows [i0, min(i0+mr, m)) over the full k of A (int8, row
// major, no transpose — the quantized weights) into dst (len 2*mr*kPairs) as
// sign-extended int16 k-pairs, zero-padding missing rows and an odd final k.
func packAI8(a []int8, lda, m, k, i0 int, dst []int16, mr int) {
	kPairs := (k + 1) / 2
	rows := m - i0
	if rows > mr {
		rows = mr
	}
	for r := 0; r < rows; r++ {
		src := a[(i0+r)*lda:]
		for t := 0; t < kPairs; t++ {
			p := 2 * t
			d := dst[t*2*mr+2*r:]
			d[0] = int16(src[p])
			if p+1 < k {
				d[1] = int16(src[p+1])
			} else {
				d[1] = 0
			}
		}
	}
	for r := rows; r < mr; r++ {
		for t := 0; t < kPairs; t++ {
			d := dst[t*2*mr+2*r:]
			d[0], d[1] = 0, 0
		}
	}
}

// packBI8 packs cols [j0, min(j0+nr, n)) over the full k of B (int8, row
// major — the quantized im2col patches) into dst (len 2*nr*kPairs) as int16
// k-pairs, zero-padding missing columns and an odd final k. This is the
// highest-traffic int8 pack (it runs over the whole im2col matrix once per
// GEMM), so the full-width case interleaves four columns per step with
// bounds-check-eliminating sub-slices. nr must be a multiple of 4 (every
// registered kernel family satisfies this).
func packBI8(b []int8, ldb, n, k, j0 int, dst []int16, nr int) {
	cols := n - j0
	if cols > nr {
		cols = nr
	}
	kFull := k / 2
	if cols == nr {
		for t := 0; t < kFull; t++ {
			r0 := b[2*t*ldb+j0 : 2*t*ldb+j0+nr]
			r1 := b[(2*t+1)*ldb+j0 : (2*t+1)*ldb+j0+nr]
			d := dst[t*2*nr : t*2*nr+2*nr]
			for c := 0; c+4 <= nr; c += 4 {
				q0, q1 := r0[c:c+4], r1[c:c+4]
				e := d[2*c : 2*c+8]
				e[0], e[2], e[4], e[6] = int16(q0[0]), int16(q0[1]), int16(q0[2]), int16(q0[3])
				e[1], e[3], e[5], e[7] = int16(q1[0]), int16(q1[1]), int16(q1[2]), int16(q1[3])
			}
		}
	} else {
		for t := 0; t < kFull; t++ {
			r0 := b[2*t*ldb+j0:]
			r1 := b[(2*t+1)*ldb+j0:]
			d := dst[t*2*nr : t*2*nr+2*nr]
			for c := 0; c < cols; c++ {
				d[2*c] = int16(r0[c])
				d[2*c+1] = int16(r1[c])
			}
			for c := cols; c < nr; c++ {
				d[2*c], d[2*c+1] = 0, 0
			}
		}
	}
	if k%2 == 1 {
		t := kFull
		r0 := b[2*t*ldb+j0:]
		d := dst[t*2*nr : t*2*nr+2*nr]
		for c := 0; c < cols; c++ {
			d[2*c] = int16(r0[c])
			d[2*c+1] = 0
		}
		for c := cols; c < nr; c++ {
			d[2*c], d[2*c+1] = 0, 0
		}
	}
}
