package tracking

import (
	"testing"

	"repro/internal/detect"
)

func det(x, y float64) detect.Detection {
	return detect.Detection{Box: detect.Box{X: x, Y: y, W: 0.1, H: 0.1}, Score: 0.9}
}

func TestSingleObjectTrackedAcrossFrames(t *testing.T) {
	tr := New(DefaultConfig())
	// Object drifts right slowly; same track must follow it.
	for i := 0; i < 5; i++ {
		tr.Update([]detect.Detection{det(0.3+0.01*float64(i), 0.5)})
	}
	confirmed := tr.Confirmed()
	if len(confirmed) != 1 {
		t.Fatalf("confirmed tracks = %d, want 1", len(confirmed))
	}
	if tr.TotalConfirmed != 1 {
		t.Fatalf("unique count = %d, want 1", tr.TotalConfirmed)
	}
	if got := confirmed[0].Hits; got != 5 {
		t.Fatalf("hits = %d, want 5", got)
	}
	if len(confirmed[0].Trajectory) != 5 {
		t.Fatalf("trajectory length = %d", len(confirmed[0].Trajectory))
	}
}

// TestTrajectoryBounded: a track that outlives maxTrajectory frames keeps
// the latest boxes, in order, and its capacity stops growing — a session
// that streams for hours must not hold every frame it ever saw.
func TestTrajectoryBounded(t *testing.T) {
	tr := New(DefaultConfig())
	const frames = 3*maxTrajectory + 7
	x := func(i int) float64 { return 0.3 + 0.001*float64(i) }
	for i := 0; i < frames; i++ {
		tr.Update([]detect.Detection{det(x(i), 0.5)})
	}
	confirmed := tr.Confirmed()
	if len(confirmed) != 1 || confirmed[0].Hits != frames {
		t.Fatalf("want one track with %d hits, got %d tracks", frames, len(confirmed))
	}
	traj := confirmed[0].Trajectory
	if len(traj) != maxTrajectory || cap(traj) > 2*maxTrajectory {
		t.Fatalf("trajectory len %d cap %d, want len %d and a bounded cap", len(traj), cap(traj), maxTrajectory)
	}
	for k, b := range traj {
		if want := x(frames - maxTrajectory + k); b.X != want {
			t.Fatalf("trajectory[%d].X = %v, want %v (the latest %d boxes in order)", k, b.X, want, maxTrajectory)
		}
	}
}

func TestTwoSeparateObjectsTwoTracks(t *testing.T) {
	tr := New(DefaultConfig())
	for i := 0; i < 3; i++ {
		tr.Update([]detect.Detection{det(0.2, 0.2), det(0.8, 0.8)})
	}
	if tr.TotalConfirmed != 2 {
		t.Fatalf("unique vehicles = %d, want 2", tr.TotalConfirmed)
	}
	ids := map[int]bool{}
	for _, c := range tr.Confirmed() {
		ids[c.ID] = true
	}
	if len(ids) != 2 {
		t.Fatalf("distinct IDs = %d", len(ids))
	}
}

func TestTrackRetiredAfterMisses(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxMisses = 2
	tr := New(cfg)
	tr.Update([]detect.Detection{det(0.5, 0.5)})
	tr.Update([]detect.Detection{det(0.5, 0.5)})
	if tr.Live() != 1 {
		t.Fatalf("live = %d", tr.Live())
	}
	// Object disappears; after MaxMisses empty frames the track retires.
	tr.Update(nil)
	tr.Update(nil)
	tr.Update(nil)
	if tr.Live() != 0 {
		t.Fatalf("track not retired: live = %d", tr.Live())
	}
}

func TestReappearanceCreatesNewTrack(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxMisses = 1
	cfg.MinHits = 1
	tr := New(cfg)
	tr.Update([]detect.Detection{det(0.5, 0.5)})
	tr.Update(nil)
	tr.Update(nil) // retired now
	tr.Update([]detect.Detection{det(0.5, 0.5)})
	if tr.TotalConfirmed != 2 {
		t.Fatalf("unique count after reappearance = %d, want 2 (new ID)", tr.TotalConfirmed)
	}
}

func TestUnconfirmedTracksNotReported(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinHits = 3
	tr := New(cfg)
	got := tr.Update([]detect.Detection{det(0.5, 0.5)})
	if len(got) != 0 {
		t.Fatal("single-hit track must not be confirmed with MinHits=3")
	}
	tr.Update([]detect.Detection{det(0.5, 0.5)})
	got = tr.Update([]detect.Detection{det(0.5, 0.5)})
	if len(got) != 1 {
		t.Fatalf("track not confirmed after 3 hits: %d", len(got))
	}
}

func TestGreedyPrefersHighScore(t *testing.T) {
	tr := New(Config{MatchIoU: 0.3, MaxMisses: 3, MinHits: 1})
	tr.Update([]detect.Detection{det(0.5, 0.5)})
	id := tr.Confirmed()[0].ID
	// Two candidates overlap the track; the higher-scoring one claims it,
	// the other starts a new track.
	low := det(0.51, 0.5)
	low.Score = 0.2
	high := det(0.5, 0.51)
	high.Score = 0.95
	tr.Update([]detect.Detection{low, high})
	var claimedBox detect.Box
	for _, c := range tr.Confirmed() {
		if c.ID == id {
			claimedBox = c.Box
		}
	}
	if claimedBox != high.Box {
		t.Fatalf("track followed the low-score detection: %+v", claimedBox)
	}
}

func TestNoCrossTalkBetweenDistantDetections(t *testing.T) {
	tr := New(DefaultConfig())
	tr.Update([]detect.Detection{det(0.1, 0.1)})
	tr.Update([]detect.Detection{det(0.9, 0.9)}) // far away: new track, old one misses
	if tr.Live() != 2 {
		t.Fatalf("live = %d, want 2 (no association across the image)", tr.Live())
	}
}

func TestVelocityTracksCenterStep(t *testing.T) {
	tr := New(Config{MatchIoU: 0.3, MaxMisses: 3, MinHits: 1})
	tr.Update([]detect.Detection{det(0.30, 0.50)})
	c := tr.Confirmed()[0]
	if c.VX != 0 || c.VY != 0 {
		t.Fatalf("first observation has velocity (%g,%g), want zero", c.VX, c.VY)
	}
	tr.Update([]detect.Detection{det(0.32, 0.49)})
	c = tr.Confirmed()[0]
	if !approx(c.VX, 0.02) || !approx(c.VY, -0.01) {
		t.Fatalf("velocity (%g,%g), want (0.02,-0.01)", c.VX, c.VY)
	}
	// One missed frame, then re-acquired two frames after the last hit:
	// the step must be normalized by the gap, not reported as one jump.
	tr.Update(nil)
	tr.Update([]detect.Detection{det(0.36, 0.49)})
	c = tr.Confirmed()[0]
	if !approx(c.VX, 0.02) || !approx(c.VY, 0) {
		t.Fatalf("gap-normalized velocity (%g,%g), want (0.02,0)", c.VX, c.VY)
	}
}

func approx(a, b float64) bool {
	d := a - b
	return d < 1e-12 && d > -1e-12
}

func TestTrackCarriesDetectionClassAndScore(t *testing.T) {
	tr := New(Config{MatchIoU: 0.3, MaxMisses: 3, MinHits: 1})
	d := det(0.5, 0.5)
	d.Class = 2
	d.Score = 0.7
	tr.Update([]detect.Detection{d})
	c := tr.Confirmed()[0]
	if c.Class != 2 || c.Score != 0.7 {
		t.Fatalf("track class/score = %d/%g, want 2/0.7", c.Class, c.Score)
	}
	d.Score = 0.8
	tr.Update([]detect.Detection{d})
	if c = tr.Confirmed()[0]; c.Score != 0.8 {
		t.Fatalf("score not refreshed on association: %g", c.Score)
	}
}

func TestOnRetireHookFiresOnAgeOutAndFlush(t *testing.T) {
	var retired []int
	cfg := Config{MatchIoU: 0.3, MaxMisses: 1, MinHits: 1,
		OnRetire: func(tr *Track) { retired = append(retired, tr.ID) }}
	tr := New(cfg)
	tr.Update([]detect.Detection{det(0.1, 0.1), det(0.9, 0.9)})
	// First object vanishes: after MaxMisses+1 empty frames its track must
	// retire through the hook.
	tr.Update([]detect.Detection{det(0.9, 0.9)})
	tr.Update([]detect.Detection{det(0.9, 0.9)})
	if len(retired) != 1 {
		t.Fatalf("retire hook fired %d times, want 1 (ids %v)", len(retired), retired)
	}
	// Flush drains the survivor through the same hook and empties the set.
	tr.Flush()
	if len(retired) != 2 {
		t.Fatalf("retire hook after Flush fired %d times, want 2", len(retired))
	}
	if tr.Live() != 0 {
		t.Fatalf("live after Flush = %d", tr.Live())
	}
}

func TestConfigFallbacks(t *testing.T) {
	tr := New(Config{}) // all invalid → defaults
	tr.Update([]detect.Detection{det(0.5, 0.5)})
	tr.Update([]detect.Detection{det(0.5, 0.5)})
	if tr.TotalConfirmed != 1 {
		t.Fatalf("defaults not applied: %s", tr)
	}
	if tr.Frame() != 2 || tr.String() == "" {
		t.Fatal("bookkeeping broken")
	}
}
