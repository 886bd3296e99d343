package tensor

import "testing"

// TestArenaCarveAndConverge pins the grow-once contract: after one full
// pass, a Reset + identical carve sequence reuses the same slab (no growth,
// same backing memory).
func TestArenaCarveAndConverge(t *testing.T) {
	var a Arena
	f1 := a.F32(100)
	i1 := a.I16(33)
	if len(f1) != 100 || len(i1) != 33 {
		t.Fatalf("carve lengths %d/%d, want 100/33", len(f1), len(i1))
	}
	f1[99] = 7
	bytes := a.Bytes()
	if bytes < 4*100+2*33 {
		t.Fatalf("Bytes() = %d, want >= %d", bytes, 4*100+2*33)
	}

	a.Reset()
	f2 := a.F32(100)
	if &f1[0] != &f2[0] {
		t.Error("post-Reset carve of the same size did not reuse the slab")
	}
	if a.Bytes() != bytes {
		t.Errorf("footprint changed across a converged Reset: %d -> %d", bytes, a.Bytes())
	}

	// A second, disjoint carve in the same pass must not alias the first.
	f3 := a.F32(50)
	f2[99] = 1
	f3[49] = 2
	if &f2[99] == &f3[49] {
		t.Error("sequential carves alias")
	}
}

// TestArenaGrowKeepsOldCarvesValid: growing mid-pass must leave previously
// carved slices usable (they keep the old slab).
func TestArenaGrowKeepsOldCarvesValid(t *testing.T) {
	var a Arena
	first := a.F32(10)
	for i := range first {
		first[i] = float32(i)
	}
	_ = a.F32(1 << 16) // forces growth
	for i := range first {
		if first[i] != float32(i) {
			t.Fatalf("old carve corrupted at %d after growth", i)
		}
	}
}

// TestArenaBytesConcurrentWithCarving is the race-regression test for the
// engine's workspace accounting: Bytes() is documented safe to call while a
// forward pass carves from the arena (it reads an atomically mirrored
// footprint, not the slab headers). Run under -race this fails if that
// guarantee regresses.
func TestArenaBytesConcurrentWithCarving(t *testing.T) {
	var a Arena
	done := make(chan struct{})
	go func() {
		defer close(done)
		var last int64
		for i := 0; i < 2000; i++ {
			b := a.Bytes()
			if b < last {
				t.Errorf("footprint shrank: %d -> %d", last, b)
				return
			}
			last = b
		}
	}()
	for i := 0; i < 2000; i++ {
		a.Reset()
		_ = a.F32(i % 509)
		_ = a.I16(i % 253)
	}
	<-done
}
