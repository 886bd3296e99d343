package cluster_test

import (
	"errors"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster"
)

// runSpawnHelper is the body of a child the Spawn tests start. Modes:
// "announce" prints the listen line and exits 0 on SIGTERM; "admin" does the
// same with the admin line following later; "silent" writes its pid to the
// file args[0] and exits 3 without a word; "stubborn" announces and ignores
// SIGTERM.
func runSpawnHelper(mode string, args []string) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM)
	switch mode {
	case "announce":
		fmt.Println("listening on 127.0.0.1:7001")
	case "admin":
		fmt.Println("listening on 127.0.0.1:7001")
		time.Sleep(100 * time.Millisecond)
		fmt.Println("admin listening on 127.0.0.1:7002")
	case "silent":
		if err := os.WriteFile(args[0], []byte(strconv.Itoa(os.Getpid())), 0o644); err != nil {
			os.Exit(1)
		}
		os.Exit(3)
	case "stubborn":
		signal.Ignore(syscall.SIGTERM)
		fmt.Println("listening on 127.0.0.1:7001")
		time.Sleep(time.Hour)
	}
	<-sig
	os.Exit(0)
}

// spawnHelper starts this test binary as a Spawn helper child.
func spawnHelper(t *testing.T, admin bool, mode string, args ...string) (*cluster.Process, error) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	p, err := cluster.Spawn(exe, append([]string{spawnHelperArg, mode}, args...), admin)
	if err == nil {
		t.Cleanup(func() {
			_ = p.Cmd.Process.Kill()
			_ = p.Cmd.Wait()
		})
	}
	return p, err
}

// TestSpawnReturnsAnnouncedAddr: Spawn hands back the address a child
// announces, and Drain of a child that exits cleanly on SIGTERM is nil.
func TestSpawnReturnsAnnouncedAddr(t *testing.T) {
	p, err := spawnHelper(t, false, "announce")
	if err != nil {
		t.Fatal(err)
	}
	if p.Addr != "127.0.0.1:7001" || p.AdminAddr != "" {
		t.Errorf("Addr %q AdminAddr %q, want 127.0.0.1:7001 and none", p.Addr, p.AdminAddr)
	}
	if err := p.Drain(10 * time.Second); err != nil {
		t.Errorf("Drain of a clean exit: %v", err)
	}
}

// TestSpawnWaitsForAdminLine: with admin set, Spawn returns only once the
// second, later line has named the admin listener.
func TestSpawnWaitsForAdminLine(t *testing.T) {
	p, err := spawnHelper(t, true, "admin")
	if err != nil {
		t.Fatal(err)
	}
	if p.Addr != "127.0.0.1:7001" || p.AdminAddr != "127.0.0.1:7002" {
		t.Errorf("Addr %q AdminAddr %q, want 127.0.0.1:7001 and 127.0.0.1:7002", p.Addr, p.AdminAddr)
	}
	if err := p.Drain(10 * time.Second); err != nil {
		t.Errorf("Drain: %v", err)
	}
}

// TestSpawnSilentExitIsReaped: a child that exits without announcing is an
// error, and Spawn has reaped it (a zombie would still take signal 0).
func TestSpawnSilentExitIsReaped(t *testing.T) {
	pidFile := filepath.Join(t.TempDir(), "pid")
	if _, err := spawnHelper(t, false, "silent", pidFile); err == nil {
		t.Fatal("Spawn of a child that never announced returned no error")
	}
	raw, err := os.ReadFile(pidFile)
	if err != nil {
		t.Fatal(err)
	}
	pid, err := strconv.Atoi(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
		t.Errorf("signal 0 to the silent child %d: %v, want ESRCH (reaped)", pid, err)
	}
}

// TestDrainKillsAfterTimeout: a child that ignores SIGTERM is killed once
// the timeout passes, reaped, and reported as an error.
func TestDrainKillsAfterTimeout(t *testing.T) {
	p, err := spawnHelper(t, false, "stubborn")
	if err != nil {
		t.Fatal(err)
	}
	const timeout = 200 * time.Millisecond
	start := time.Now()
	if err := p.Drain(timeout); err == nil {
		t.Error("Drain of a child ignoring SIGTERM returned no error")
	}
	if waited := time.Since(start); waited < timeout {
		t.Errorf("Drain returned after %s, before its %s timeout", waited, timeout)
	}
	if p.Cmd.ProcessState == nil || p.Cmd.ProcessState.Success() {
		t.Errorf("after Drain the child's state is %v, want reaped after a kill", p.Cmd.ProcessState)
	}
}
