package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// proc is one running system-under-test process.
type proc struct {
	cmd    *exec.Cmd
	log    *os.File
	exited chan struct{}
	err    error // the Wait result, valid once exited is closed
}

// spawn starts bin with args, its output appended to logPath.
func spawn(bin string, args []string, logPath string) (*proc, error) {
	log, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &proc{cmd: cmd, log: log, exited: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		log.Close()
		close(p.exited)
	}()
	return p, nil
}

// kill sends SIGKILL and waits for the process to end. Killing an
// exited process is a no-op.
func (p *proc) kill() {
	select {
	case <-p.exited:
		return
	default:
	}
	p.cmd.Process.Kill()
	<-p.exited
}

// peakRSS reads the process's resident-set high-water mark, in MiB.
func (p *proc) peakRSS() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// waitReady polls /readyz until it answers 200 and returns how long that
// took from since. It fails when the process exits or ctx ends first.
// The polling period grows with the wait, to a hundredth of it, so a
// slow start is not charged for answering thousands of polls.
func (p *proc) waitReady(ctx context.Context, c *http.Client, base string, since time.Time) (time.Duration, error) {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
		if err != nil {
			return 0, err
		}
		if resp, err := c.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(since), nil
			}
		}
		select {
		case <-p.exited:
			return 0, fmt.Errorf("process exited before it was ready: %v", p.err)
		case <-ctx.Done():
			return 0, ctx.Err()
		default:
		}
		// A cold start of synthd takes a few milliseconds: time.Sleep's
		// millisecond overshoot would quantize it.
		nap(max(200*time.Microsecond, time.Since(since)/100))
	}
}

// freeAddr picks a loopback address nothing listens on.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}
