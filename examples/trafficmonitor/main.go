// Traffic monitoring: the Road Traffic Monitoring use case from the paper's
// introduction. A simulated UAV hovers over an urban area and streams
// frames; the detector counts vehicles per frame and the example reports a
// running traffic density estimate plus pipeline throughput — the same
// frame-by-frame loop §IV.B ran on the Odroid payload.
//
// Run with:
//
//	go run ./examples/trafficmonitor
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/detect"
	"repro/internal/models"
	"repro/internal/pipeline"
	"repro/internal/tracking"
)

func main() {
	log.SetFlags(0)
	demo.Banner(os.Stdout, "UAV road-traffic monitoring")

	const size = 128
	det, _, err := demo.TrainDemoDetector(size, 64, 1200, 11, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("detector trained; starting the camera stream")

	counts := make([]int, 0, 20)
	tracker := tracking.New(tracking.DefaultConfig())
	runner := &pipeline.Runner{
		BatchRunner: pipeline.BatchRunner{Net: det.Net, Thresh: det.Thresh, NMSThresh: det.NMSThresh},
		OnFrame: func(f pipeline.Frame, dets []detect.Detection) {
			counts = append(counts, len(dets))
			live := tracker.Update(dets)
			fmt.Printf("frame %2d: %d detections, %d tracked vehicles (truth %d)\n",
				f.Index, len(dets), len(live), len(f.Truths))
		},
	}
	cam := pipeline.NewSimCamera(demo.SceneConfig(size), 20, 42)
	stats, err := runner.Run(cam)
	if err != nil {
		log.Fatal(err)
	}

	total := 0
	peak := 0
	for _, c := range counts {
		total += c
		if c > peak {
			peak = c
		}
	}
	fmt.Println()
	fmt.Println("pipeline:", stats)
	fmt.Println("tracker: ", tracker)
	fmt.Printf("traffic density: %.1f vehicles/frame average, %d peak, %d unique tracked\n",
		float64(total)/float64(len(counts)), peak, tracker.TotalConfirmed)

	// The paper's §IV.B deployment question: would the full-size DroNet
	// sustain real time on the UAV's computing payloads?
	full, err := core.NewDetector(models.DroNet, 512, 1)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range []string{"i5", "odroid", "rpi3"} {
		fps, err := full.PredictFPS(p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("full DroNet@512 deployment estimate on %-7s %6.1f FPS\n", p+":", fps)
	}
}
