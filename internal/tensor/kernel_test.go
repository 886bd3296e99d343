package tensor

import (
	"strings"
	"testing"
)

// TestKernelDispatchInfo logs the registered families and the active
// selection — CI's fuzz and bench-smoke jobs run it with -v so every log
// records which dispatch path the numbers belong to — and sanity-checks the
// registry invariants (portable always present and last, selected family
// registered, geometry within the scratch bounds).
func TestKernelDispatchInfo(t *testing.T) {
	names := AvailableKernels()
	t.Logf("kernels available: %s", strings.Join(names, ","))
	t.Logf("kernel selected: %s", KernelName())
	if len(names) == 0 || names[len(names)-1] != "portable" {
		t.Fatalf("portable family must be registered last, have %v", names)
	}
	if !kernelSupported(KernelName()) {
		t.Fatalf("selected family %q is not in the registry %v", KernelName(), names)
	}
	if kernelSupported("no-such-kernel") {
		t.Fatal("kernelSupported accepted an unknown family")
	}
	kernelOnce.Do(initKernelList)
	for _, kern := range kernelList {
		if kern.mr <= 0 || kern.nr <= 0 || kern.mr > maxMR || kern.nr > maxNR {
			t.Fatalf("family %q tile %dx%d outside (0, %dx%d]", kern.name, kern.mr, kern.nr, maxMR, maxNR)
		}
		if kern.nr%4 != 0 {
			t.Fatalf("family %q NR=%d must be a multiple of 4 (packBI8 fast path)", kern.name, kern.nr)
		}
	}
}

// TestSelectedKernel asserts the dispatcher actually picked the AVX2 family
// on hardware that supports it — the guard `make bench-smoke` runs so a
// silently rotted dispatch chain (detection regression, registration order
// bug) fails loudly instead of benchmarking the slow path. Skips when the
// CPU/build doesn't carry the AVX2 family.
func TestSelectedKernel(t *testing.T) {
	if !kernelSupported("avx2") {
		t.Skipf("AVX2 family not available on this CPU/build (have %s)", strings.Join(AvailableKernels(), ","))
	}
	if got := KernelName(); got != "avx2" {
		t.Fatalf("AVX2 is available but dispatch selected %q", got)
	}
}

// kernelSupported reports whether the named family is registered on this
// CPU/build.
func kernelSupported(name string) bool {
	kernelOnce.Do(initKernelList)
	for _, k := range kernelList {
		if k.name == name {
			return true
		}
	}
	return false
}
