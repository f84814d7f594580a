package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

// child is the driver's handle on one server process.
type child struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	enc   *json.Encoder
	dec   *json.Decoder
}

// serverProcs is the GOMAXPROCS the server process runs with.
func serverProcs() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// startChild re-executes this binary as the server process.
func startChild() (*child, error) {
	bin, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating own executable: %w", err)
	}
	cmd := exec.Command(bin, "-serve")
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(serverProcs()))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting server process: %w", err)
	}
	return &child{cmd: cmd, stdin: stdin, enc: json.NewEncoder(stdin),
		dec: json.NewDecoder(bufio.NewReader(stdout))}, nil
}

func (c *child) call(req ctlRequest) (*ctlReply, error) {
	if err := c.enc.Encode(&req); err != nil {
		return nil, fmt.Errorf("server process: %s: %w", req.Cmd, err)
	}
	var rep ctlReply
	if err := c.dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("server process: %s: %w", req.Cmd, err)
	}
	if rep.Err != "" {
		return nil, fmt.Errorf("server process: %s: %s", req.Cmd, rep.Err)
	}
	return &rep, nil
}

func (c *child) build(nodes []nodeSpec, trace bool) ([]string, error) {
	rep, err := c.call(ctlRequest{Cmd: "build", Nodes: nodes, Trace: trace})
	if err != nil {
		return nil, err
	}
	if len(rep.Addrs) != len(nodes) {
		return nil, fmt.Errorf("server process: built %d of %d tiers", len(rep.Addrs), len(nodes))
	}
	return rep.Addrs, nil
}

func (c *child) gc() error {
	_, err := c.call(ctlRequest{Cmd: "gc"})
	return err
}

func (c *child) stats() (*childStats, error) {
	rep, err := c.call(ctlRequest{Cmd: "stats"})
	if err != nil {
		return nil, err
	}
	if rep.Stats == nil {
		return nil, fmt.Errorf("server process: stats: empty reply")
	}
	return rep.Stats, nil
}

// stop asks the server process to exit and waits until it has; a process
// that does not leave within the grace period is killed. Either way no
// process or listener outlives the call.
func (c *child) stop() error {
	_, callErr := c.call(ctlRequest{Cmd: "quit"})
	c.stdin.Close() // EOF ends the control loop even if quit was lost
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("server process: %w", err)
		}
		return callErr
	case <-time.After(10 * time.Second):
		c.cmd.Process.Kill()
		<-done
		return fmt.Errorf("server process: killed after ignoring quit for 10s")
	}
}
