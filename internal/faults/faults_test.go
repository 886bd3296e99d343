package faults

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestDisarmedFireIsNil(t *testing.T) {
	Disarm()
	if Enabled() {
		t.Fatal("enabled with nothing armed")
	}
	if err := Fire("anything", "key"); err != nil {
		t.Fatalf("disarmed Fire returned %v", err)
	}
}

func TestArmErrorAndKeyMatching(t *testing.T) {
	defer Disarm()
	if err := Arm("cluster.forward#a=error,serve.queue=error"); err != nil {
		t.Fatal(err)
	}
	if !Enabled() {
		t.Fatal("not enabled after Arm")
	}
	if err := Fire("cluster.forward", "a"); !errors.Is(err, ErrInjected) {
		t.Fatalf("keyed site: got %v", err)
	}
	if err := Fire("cluster.forward", "b"); err != nil {
		t.Fatalf("non-matching key fired: %v", err)
	}
	// A bare site matches every key at that site, and the missing key too.
	if err := Fire("serve.queue", "any"); !errors.Is(err, ErrInjected) {
		t.Fatalf("bare site with key: got %v", err)
	}
	if err := Fire("serve.queue", ""); !errors.Is(err, ErrInjected) {
		t.Fatalf("bare site without key: got %v", err)
	}
}

func TestErrorRateIsDeterministic(t *testing.T) {
	defer Disarm()
	if err := Arm("s=error:0.5"); err != nil {
		t.Fatal(err)
	}
	fired := 0
	for i := 0; i < 10; i++ {
		if Fire("s", "") != nil {
			fired++
		}
	}
	if fired != 5 {
		t.Fatalf("rate 0.5 fired %d/10 times", fired)
	}
}

func TestSlowInjectsDelay(t *testing.T) {
	defer Disarm()
	if err := Arm("s=slow:30ms"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := Fire("s", ""); err != nil {
		t.Fatalf("slow returned %v", err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("slow fault delayed only %v", d)
	}
}

func TestDisarmReleasesStall(t *testing.T) {
	if err := Arm("s=stall"); err != nil {
		t.Fatal(err)
	}
	released := make(chan struct{})
	go func() {
		_ = Fire("s", "")
		close(released)
	}()
	select {
	case <-released:
		t.Fatal("stall returned before Disarm")
	case <-time.After(20 * time.Millisecond):
	}
	Disarm()
	select {
	case <-released:
	case <-time.After(2 * time.Second):
		t.Fatal("Disarm did not release the stalled goroutine")
	}
}

func TestResetConn(t *testing.T) {
	defer Disarm()
	if err := Arm("s=reset-conn"); err != nil {
		t.Fatal(err)
	}
	if err := Fire("s", ""); !errors.Is(err, ErrConnReset) {
		t.Fatalf("got %v", err)
	}
}

func TestParseRejects(t *testing.T) {
	for _, bad := range []string{
		"", "=error", "s=", "s=warp", "s=slow", "s=slow:-1ms",
		"s=error:0", "s=error:2", "s=stall:arg", "s=error,s=stall",
	} {
		if err := Arm(bad); err == nil {
			Disarm()
			t.Fatalf("Arm(%q) accepted", bad)
		}
	}
}

// FuzzArm holds the spec grammar to its contract: Arm never panics, and an
// accepted spec arms exactly one fault per entry (no site twice), each one
// of the four kinds, a slow with a positive delay and an error with a firing
// period of at least one hit.
func FuzzArm(f *testing.F) {
	for _, seed := range []string{
		"", "=error", "s=", "s=warp", "s=slow", "s=slow:-1ms",
		"s=error:0", "s=error:2", "s=stall:arg", "s=error,s=stall",
		"cluster.forward#127.0.0.1:4001=slow:300ms,serve.batch#high=stall",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		defer Disarm()
		if err := Arm(spec); err != nil {
			return
		}
		r := active.Load()
		if r == nil {
			t.Fatalf("Arm(%q) accepted but armed nothing", spec)
		}
		if n := len(strings.Split(spec, ",")); len(r.sites) != n {
			t.Fatalf("Arm(%q): %d sites for %d entries (duplicate site accepted)", spec, len(r.sites), n)
		}
		for site, ft := range r.sites {
			switch ft.kind {
			case "slow":
				if ft.d <= 0 {
					t.Fatalf("Arm(%q): site %q slow by %v", spec, site, ft.d)
				}
			case "error":
				if ft.every < 1 {
					t.Fatalf("Arm(%q): site %q error period %d", spec, site, ft.every)
				}
			case "stall", "reset-conn":
			default:
				t.Fatalf("Arm(%q): site %q has unknown kind %q", spec, site, ft.kind)
			}
		}
	})
}
