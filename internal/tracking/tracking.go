// Package tracking provides the multi-object IoU tracker that turns
// per-frame detections into persistent vehicle tracks — the piece a real
// Road-Traffic-Monitoring deployment (paper §I) layers on top of the
// detector to count unique vehicles and estimate flow instead of raw
// per-frame detection counts.
//
// The tracker is the standard "IoU tracker" baseline: greedy association of
// detections to live tracks by IoU, a miss budget before a track is
// retired, and a hit threshold before a track is confirmed. Each confirmed
// track carries a per-frame velocity estimate (the last center step, in
// normalized image units per frame) so a streaming consumer gets flow
// direction and speed, not just boxes.
//
// # Concurrency contract
//
// A Tracker is NOT safe for concurrent use: every method must be called
// from a single goroutine (or under external serialization). The serving
// tier's streaming sessions each own a private Tracker driven from that
// session's worker goroutine — N concurrent camera sessions mean N
// independent Trackers, never N goroutines sharing one. This is the
// contract that keeps track-id assignment deterministic per session
// regardless of how sessions' frames interleave inside cross-stream
// micro-batches.
//
// Config.OnRetire, when set, is invoked (on the Update caller's goroutine)
// each time a track leaves the live set — the eviction hook a session uses
// to account finished tracks; Flush retires everything at session end.
package tracking

import (
	"fmt"
	"sort"

	"repro/internal/detect"
)

// Track is one tracked object.
type Track struct {
	ID  int
	Box detect.Box
	// Class and Score echo the most recently associated detection, so a
	// streaming consumer reading tracks alone loses nothing the raw
	// detections carried.
	Class int
	Score float64
	// VX and VY estimate the track's velocity as the center displacement
	// per frame (normalized image units), averaged over the gap since the
	// previous association — zero until the second association, since one
	// observation has no direction.
	VX, VY float64
	// Hits is the number of frames with an associated detection; Misses is
	// the current consecutive miss streak.
	Hits, Misses int
	// Confirmed becomes true after MinHits associations; only confirmed
	// tracks are reported and counted.
	Confirmed bool
	// FirstFrame and LastFrame bound the track's observed lifetime.
	FirstFrame, LastFrame int
	// Trajectory records the box of each associated frame, the latest
	// maxTrajectory of them.
	Trajectory []detect.Box
}

// maxTrajectory bounds Track.Trajectory. A streaming session's tracks live
// as long as the camera keeps an object in view, and an unbounded history
// grew every session's memory with every frame it had ever processed.
const maxTrajectory = 64

// Config tunes the tracker.
type Config struct {
	// MatchIoU is the minimum IoU to associate a detection with a track.
	MatchIoU float64
	// MaxMisses retires a track after this many consecutive missed frames.
	MaxMisses int
	// MinHits confirms a track after this many associations.
	MinHits int
	// OnRetire, when non-nil, is called for every track leaving the live
	// set — aged out by the miss budget during Update, or drained by
	// Flush. Invoked on the caller's goroutine under the tracker's
	// single-goroutine contract; keep it cheap.
	OnRetire func(*Track)
}

// DefaultConfig returns the usual IoU-tracker baseline settings.
func DefaultConfig() Config {
	return Config{MatchIoU: 0.3, MaxMisses: 3, MinHits: 2}
}

// Tracker maintains the live track set across frames.
type Tracker struct {
	cfg    Config
	nextID int
	frame  int
	live   []*Track
	// TotalConfirmed counts every track that ever reached confirmation —
	// the "unique vehicles seen" statistic.
	TotalConfirmed int
}

// New creates a tracker. Invalid config values fall back to defaults.
func New(cfg Config) *Tracker {
	d := DefaultConfig()
	if cfg.MatchIoU <= 0 || cfg.MatchIoU >= 1 {
		cfg.MatchIoU = d.MatchIoU
	}
	if cfg.MaxMisses <= 0 {
		cfg.MaxMisses = d.MaxMisses
	}
	if cfg.MinHits <= 0 {
		cfg.MinHits = d.MinHits
	}
	return &Tracker{cfg: cfg, nextID: 1}
}

// Update associates one frame's detections with the live tracks and returns
// the confirmed tracks after the update. Detections are matched greedily in
// descending score order.
func (t *Tracker) Update(dets []detect.Detection) []*Track {
	t.frame++
	sorted := make([]detect.Detection, len(dets))
	copy(sorted, dets)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Score > sorted[j].Score })

	claimed := make([]bool, len(t.live))
	for _, d := range sorted {
		bestJ, bestIoU := -1, t.cfg.MatchIoU
		for j, tr := range t.live {
			if claimed[j] {
				continue
			}
			if iou := detect.IoU(d.Box, tr.Box); iou >= bestIoU {
				bestIoU = iou
				bestJ = j
			}
		}
		if bestJ >= 0 {
			tr := t.live[bestJ]
			claimed[bestJ] = true
			// Velocity is the center step since the last association,
			// normalized by the frame gap so a track re-acquired after
			// misses doesn't report an inflated jump as speed.
			if gap := t.frame - tr.LastFrame; gap > 0 {
				tr.VX = (d.Box.X - tr.Box.X) / float64(gap)
				tr.VY = (d.Box.Y - tr.Box.Y) / float64(gap)
			}
			tr.Box = d.Box
			tr.Class = d.Class
			tr.Score = d.Score
			tr.Hits++
			tr.Misses = 0
			tr.LastFrame = t.frame
			if len(tr.Trajectory) == maxTrajectory {
				tr.Trajectory = tr.Trajectory[:copy(tr.Trajectory, tr.Trajectory[1:])]
			}
			tr.Trajectory = append(tr.Trajectory, d.Box)
			if !tr.Confirmed && tr.Hits >= t.cfg.MinHits {
				tr.Confirmed = true
				t.TotalConfirmed++
			}
		} else {
			tr := &Track{
				ID: t.nextID, Box: d.Box, Class: d.Class, Score: d.Score, Hits: 1,
				FirstFrame: t.frame, LastFrame: t.frame,
				Trajectory: []detect.Box{d.Box},
			}
			t.nextID++
			if t.cfg.MinHits <= 1 {
				tr.Confirmed = true
				t.TotalConfirmed++
			}
			t.live = append(t.live, tr)
			claimed = append(claimed, true)
		}
	}
	// Age unmatched tracks and retire the stale ones.
	kept := t.live[:0]
	for j, tr := range t.live {
		if j < len(claimed) && !claimed[j] {
			tr.Misses++
		}
		if tr.Misses <= t.cfg.MaxMisses {
			kept = append(kept, tr)
		} else if t.cfg.OnRetire != nil {
			t.cfg.OnRetire(tr)
		}
	}
	t.live = kept
	return t.Confirmed()
}

// Flush retires every live track (invoking OnRetire for each) and empties
// the live set — the end-of-session drain, so a streaming session's
// teardown accounts its in-progress tracks the same way the miss budget
// would have. Frame and id counters are NOT reset: a Tracker is
// single-stream, and a resumed stream gets a fresh Tracker.
func (t *Tracker) Flush() {
	for _, tr := range t.live {
		if t.cfg.OnRetire != nil {
			t.cfg.OnRetire(tr)
		}
	}
	t.live = t.live[:0]
}

// Confirmed returns the currently live, confirmed tracks.
func (t *Tracker) Confirmed() []*Track {
	out := make([]*Track, 0, len(t.live))
	for _, tr := range t.live {
		if tr.Confirmed {
			out = append(out, tr)
		}
	}
	return out
}

// Live returns the number of live (confirmed or tentative) tracks.
func (t *Tracker) Live() int { return len(t.live) }

// Frame returns the number of processed frames.
func (t *Tracker) Frame() int { return t.frame }

// String summarizes the tracker state.
func (t *Tracker) String() string {
	return fmt.Sprintf("frame %d: %d live tracks, %d unique confirmed vehicles",
		t.frame, len(t.live), t.TotalConfirmed)
}
