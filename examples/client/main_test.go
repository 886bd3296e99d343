package main

import (
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/serve"
)

// TestWalk runs the example's whole walk against an in-process server
// hosting the quarter-scale DroNet at 64², so the example cannot drift
// from the API it shows.
func TestWalk(t *testing.T) {
	const size = 64
	d, err := core.NewScaledDetector("dronet", size, 0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(d.Model(), engine.Config{Workers: 1, Thresh: 0.24, NMSThresh: d.NMSThresh})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(eng, serve.Config{MaxBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer srv.Close()
	defer ts.Close()

	var out strings.Builder
	if err := walk(&out, ts.URL, size); err != nil {
		t.Fatalf("walk: %v\n%s", err, out.String())
	}
	for _, want := range []string{"detect: ", "stream: session ", "frame 1:", "healthz: ok"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("walk output lacks %q:\n%s", want, out.String())
		}
	}
}
