package tensor

import "sync/atomic"

// Arena is a grow-once bump allocator for the scratch of one inference
// step: a convolution's padded input plane and 1/σ vector, an int8
// convolution's quantized pair plane, the region layer's softmax row — any
// buffer that dies when the step returns. Each model replica owns one
// (network.Network, beside its two activation slabs), resets it before every
// step and hands it to the layer's Infer; after one warm-up pass the slabs
// have converged to the largest step's demand and carving is pure pointer
// bumping — zero allocations, one slab per element type, whose footprint
// Bytes reports.
//
// An Arena is single-goroutine state: each replica has its own, never a
// shared one. Carved slices alias earlier slab generations when the slab
// grows mid-step; that is fine — they stay valid, and the next Reset starts
// carving from the grown slab.
//
// Carved contents are unspecified (an earlier step's data); callers must
// fully overwrite.
type Arena struct {
	f32    []float32
	f32Off int
	i16    []int16
	i16Off int
	// bytes mirrors the slab footprint for Bytes(): updated atomically on
	// the rare grow so observers (engine workspace accounting polled from
	// /healthz) can read it concurrently with a forward pass in flight.
	bytes atomic.Int64
}

// Reset rewinds the arena; every previously carved buffer's contents become
// unspecified and may be handed out again by the next carve.
func (a *Arena) Reset() {
	a.f32Off = 0
	a.i16Off = 0
}

// F32 carves n float32s.
func (a *Arena) F32(n int) []float32 {
	if a.f32Off+n > len(a.f32) {
		grown := 2 * len(a.f32)
		if grown < a.f32Off+n {
			grown = a.f32Off + n
		}
		a.f32 = make([]float32, grown)
		a.bytes.Store(4*int64(len(a.f32)) + 2*int64(len(a.i16)))
	}
	s := a.f32[a.f32Off : a.f32Off+n : a.f32Off+n]
	a.f32Off += n
	return s
}

// I16 carves n int16s.
func (a *Arena) I16(n int) []int16 {
	if a.i16Off+n > len(a.i16) {
		grown := 2 * len(a.i16)
		if grown < a.i16Off+n {
			grown = a.i16Off + n
		}
		a.i16 = make([]int16, grown)
		a.bytes.Store(4*int64(len(a.f32)) + 2*int64(len(a.i16)))
	}
	s := a.i16[a.i16Off : a.i16Off+n : a.i16Off+n]
	a.i16Off += n
	return s
}

// Bytes reports the arena's current slab footprint. Unlike carving, it is
// safe to call concurrently with a forward pass using the arena: the
// footprint is mirrored atomically on grow, so observability pollers
// (engine.WorkspaceBytes behind /healthz) never race the slab headers.
func (a *Arena) Bytes() int64 {
	return a.bytes.Load()
}
