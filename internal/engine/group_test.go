package engine_test

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/imgproc"
	"repro/internal/models"
	"repro/internal/tensor"
)

// TestGroupRegistry covers the pool-per-model registry: insertion order,
// name uniqueness, worker totals, and workspace aggregation across pools
// once replicas have been instantiated.
func TestGroupRegistry(t *testing.T) {
	small, _, err := models.Build(models.DroNet, 64, tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	big, _, err := models.Build(models.DroNet, 96, tensor.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	engSmall, err := engine.New(small, engine.Config{Workers: 1, Thresh: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	engBig, err := engine.New(big, engine.Config{Workers: 2, Thresh: 0.1})
	if err != nil {
		t.Fatal(err)
	}

	g := engine.NewGroup()
	if err := g.Add("small", engSmall); err != nil {
		t.Fatal(err)
	}
	if err := g.Add("big", engBig); err != nil {
		t.Fatal(err)
	}
	if err := g.Add("small", engBig); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := g.Add("", engBig); err == nil {
		t.Error("empty name accepted")
	}
	if err := g.Add("nil", nil); err == nil {
		t.Error("nil engine accepted")
	}

	if got := g.Names(); len(got) != 2 || got[0] != "small" || got[1] != "big" {
		t.Errorf("names = %v, want [small big] in registration order", got)
	}
	if g.Len() != 2 {
		t.Errorf("len = %d", g.Len())
	}
	if got := g.Workers(); got != 3 {
		t.Errorf("fleet workers = %d, want 3", got)
	}
	if e, ok := g.Get("big"); !ok || e != engBig {
		t.Errorf("Get(big) = %v, %v", e, ok)
	}
	if _, ok := g.Get("absent"); ok {
		t.Error("Get(absent) found an engine")
	}
	if in := engSmall.InShape(); in.W != 64 || in.H != 64 || in.C != 3 {
		t.Errorf("small InShape = %+v", in)
	}

	// Workspace aggregates only instantiated replicas: zero before any
	// batch ran, positive and additive after warming each pool.
	if ws := g.WorkspaceBytes(); ws != 0 {
		t.Errorf("workspace before warm-up = %d, want 0", ws)
	}
	engSmall.WarmBatch(2)
	smallWS := engSmall.WorkspaceBytes()
	if smallWS <= 0 {
		t.Fatal("warmed pool reports no workspace")
	}
	// The one replica's arena holds its largest padded input plane, conv1's
	// 3×66×66 floats, so workspace_bytes counts it.
	if plane := int64(4 * 3 * 66 * 66); smallWS < plane {
		t.Errorf("warmed one-replica pool reports %d workspace bytes, under the %d-byte padded plane", smallWS, plane)
	}
	if ws := g.WorkspaceBytes(); ws != smallWS {
		t.Errorf("group workspace = %d, want the one warmed pool's %d", ws, smallWS)
	}
	engBig.WarmBatch(2)
	if ws := g.WorkspaceBytes(); ws != smallWS+engBig.WorkspaceBytes() {
		t.Errorf("group workspace = %d, want sum of pools", ws)
	}

	// The pools stay independently executable after registration.
	img := &imgproc.Image{W: 64, H: 64, Pix: make([]float32, 3*64*64)}
	if _, err := engSmall.ExecuteBatch(0, []*imgproc.Image{img}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestGroupMutation covers the runtime-mutable registry surface added for
// live model lifecycle: Remove splices a pool out while preserving
// registration order, Replace swaps an engine in place (same slot, old
// engine handed back for draining), and both reject unknown names.
func TestGroupMutation(t *testing.T) {
	net, _, err := models.Build(models.DroNet, 64, tensor.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	mk := func(workers int) *engine.Engine {
		e, err := engine.New(net, engine.Config{Workers: workers, Thresh: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	a, b, c := mk(1), mk(2), mk(1)

	g := engine.NewGroup()
	for _, reg := range []struct {
		name string
		e    *engine.Engine
	}{{"a", a}, {"b", b}, {"c", c}} {
		if err := g.Add(reg.name, reg.e); err != nil {
			t.Fatal(err)
		}
	}

	if err := g.Remove("absent"); err == nil {
		t.Error("Remove(absent) succeeded")
	}
	if err := g.Remove("b"); err != nil {
		t.Fatal(err)
	}
	if got := g.Names(); len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Errorf("names after Remove = %v, want [a c] with order preserved", got)
	}
	if g.Workers() != 2 {
		t.Errorf("fleet workers after Remove = %d, want 2", g.Workers())
	}

	// Replace keeps the slot and returns the displaced engine.
	b2 := mk(3)
	if _, err := g.Replace("absent", b2); err == nil {
		t.Error("Replace(absent) succeeded")
	}
	old, err := g.Replace("a", b2)
	if err != nil {
		t.Fatal(err)
	}
	if old != a {
		t.Error("Replace did not hand back the displaced engine")
	}
	if e, ok := g.Get("a"); !ok || e != b2 {
		t.Error("Replace did not install the new engine under the old name")
	}
	if got := g.Names(); got[0] != "a" || got[1] != "c" {
		t.Errorf("names after Replace = %v, want order unchanged", got)
	}
	if g.Workers() != 4 {
		t.Errorf("fleet workers after Replace = %d, want 4", g.Workers())
	}

	// A removed pool's engine can be freed and the group is unaffected.
	old.Free()
}

// TestWorkerCap covers the lazily-raised worker cap behind idle-worker
// lending: ids at or above the cap are rejected, SetWorkerCap only ever
// raises, and a raised cap admits batch execution on the grown replica.
func TestWorkerCap(t *testing.T) {
	net, _, err := models.Build(models.DroNet, 64, tensor.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(net, engine.Config{Workers: 1, Thresh: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Free()
	if e.WorkerCap() != 1 {
		t.Fatalf("initial cap = %d, want the nominal worker count 1", e.WorkerCap())
	}

	img := &imgproc.Image{W: 64, H: 64, Pix: make([]float32, 3*64*64)}
	batch := []*imgproc.Image{img}
	want, err := e.ExecuteBatch(0, batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExecuteBatch(1, batch, nil); err == nil {
		t.Fatal("worker id above the cap accepted")
	}
	if _, err := e.ExecuteBatch(-1, batch, nil); err == nil {
		t.Fatal("negative worker id accepted")
	}

	e.SetWorkerCap(3)
	if e.WorkerCap() != 3 {
		t.Fatalf("cap after raise = %d, want 3", e.WorkerCap())
	}
	e.SetWorkerCap(2) // lowering is a no-op: in-flight borrowed ids stay valid
	if e.WorkerCap() != 3 {
		t.Fatalf("cap after attempted lower = %d, want 3 (never lowers)", e.WorkerCap())
	}
	got, err := e.ExecuteBatch(2, batch, nil)
	if err != nil {
		t.Fatalf("borrowed replica id rejected after raise: %v", err)
	}
	if len(got) != len(want) || len(got[0]) != len(want[0]) {
		t.Errorf("borrowed replica diverges from worker 0: %d dets vs %d", len(got[0]), len(want[0]))
	}
}
