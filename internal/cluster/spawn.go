package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// announceTimeout bounds how long Spawn waits for a child's announcement.
const announceTimeout = 30 * time.Second

// Process is a running child binary that has announced where it listens.
type Process struct {
	Cmd *exec.Cmd
	// Addr is from the child's "listening on HOST:PORT" line.
	Addr string
	// AdminAddr is from its "admin listening on HOST:PORT" line; it is set
	// only when Spawn was asked to wait for that line.
	AdminAddr string
}

// Spawn starts bin with args and waits up to 30s for the startup handshake
// every binary of this repository prints on stdout once its sockets are
// bound: "listening on HOST:PORT", followed by "admin listening on
// HOST:PORT" when the process has an admin listener (wait for it with
// admin). The child's stderr is the caller's; its stdout is read for the
// whole life of the process, so the child never blocks on a full pipe. A
// child that exits or stays silent before announcing is killed and reaped,
// and Spawn returns an error.
func Spawn(bin string, args []string, admin bool) (*Process, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	// announced carries the addresses once both are known and is closed
	// when stdout ends, so a receive that gets nothing means the child
	// closed its stdout (exited) first.
	announced := make(chan [2]string, 1)
	go func() {
		defer close(announced)
		var addr, adminAddr string
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "admin listening on "); ok {
				adminAddr = a
			} else if a, ok := strings.CutPrefix(line, "listening on "); ok {
				addr = a
			}
			if addr != "" && (!admin || adminAddr != "") {
				announced <- [2]string{addr, adminAddr}
				break
			}
		}
		_, _ = io.Copy(io.Discard, stdout) // ends when the child exits
	}()
	select {
	case a, ok := <-announced:
		if ok {
			return &Process{Cmd: cmd, Addr: a[0], AdminAddr: a[1]}, nil
		}
		err = errors.New("exited before announcing its address")
	case <-time.After(announceTimeout):
		err = fmt.Errorf("did not announce its address within %s", announceTimeout)
	}
	_ = cmd.Process.Kill() // fails only when the child is already gone
	_ = cmd.Wait()
	return nil, fmt.Errorf("%s: %w", bin, err)
}

// Drain sends the process SIGTERM and waits for it to exit, returning its
// exit error. A process still running after timeout is killed, reaped and
// reported as an error.
func (p *Process) Drain(timeout time.Duration) error {
	if err := p.Cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	exited := make(chan error, 1)
	go func() { exited <- p.Cmd.Wait() }()
	select {
	case err := <-exited:
		return err
	case <-time.After(timeout):
		_ = p.Cmd.Process.Kill() // fails only when the process exited meanwhile
		<-exited
		return fmt.Errorf("%s ignored SIGTERM for %s and was killed", p.Cmd.Path, timeout)
	}
}
