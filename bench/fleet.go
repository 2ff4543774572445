package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// node is one crowdd process of a fleet.
type node struct {
	url  string
	dir  string // its -data-dir
	args []string
	log  string // file its stderr goes to
	cmd  *exec.Cmd
}

func (n *node) pid() int { return n.cmd.Process.Pid }

// fleet is the set of crowdd processes one workload runs against: one
// node, or one per shard.
type fleet struct {
	bin   string
	nodes []*node
}

// live tracks every started crowdd so that an interrupt can kill them
// all, whichever fleet they belong to.
var live struct {
	sync.Mutex
	cmds map[*exec.Cmd]struct{}
}

func killAllLive() {
	live.Lock()
	defer live.Unlock()
	for c := range live.cmds {
		_ = c.Process.Kill() // already exited is fine
	}
}

// freeAddrs reserves n loopback ports by binding and releasing them.
// Another process could take one before crowdd binds it; the boot then
// fails loudly instead of measuring the wrong server.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		defer ln.Close()
	}
	return addrs, nil
}

// newFleet lays out a fleet of the given size under root: node i gets
// the data dir root/node<i>, and with more than one node the -shard
// flags that make it shard i of the fleet.
func newFleet(bin, dataset, root string, shards int) (*fleet, error) {
	addrs, err := freeAddrs(shards)
	if err != nil {
		return nil, err
	}
	urls := make([]string, shards)
	for i, a := range addrs {
		urls[i] = "http://" + a
	}
	f := &fleet{bin: bin}
	for i := range addrs {
		n := &node{
			url: urls[i],
			dir: filepath.Join(root, fmt.Sprintf("node%d", i)),
			log: filepath.Join(root, fmt.Sprintf("node%d.log", i)),
			args: []string{
				"-data", dataset, "-k", "10", "-sweeps", "6", "-crowd", "3",
				"-sync", "always", "-compact-every", "4000", "-pprof",
				"-addr", addrs[i],
			},
		}
		n.args = append(n.args, "-data-dir", n.dir)
		if shards > 1 {
			n.args = append(n.args, "-shard", fmt.Sprintf("%d/%d", i, shards), "-shard-peers", strings.Join(urls, ","))
		}
		f.nodes = append(f.nodes, n)
	}
	return f, nil
}

func (f *fleet) urls() []string {
	out := make([]string, len(f.nodes))
	for i, n := range f.nodes {
		out[i] = n.url
	}
	return out
}

// start executes one node; its stderr (crowdd logs every request) is
// appended to the node's log file.
func (f *fleet) start(n *node) error {
	logf, err := os.OpenFile(n.log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close() // the child keeps its own descriptor
	cmd := exec.Command(f.bin, n.args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the benchmark dies without running its cleanup, the kernel
	// still stops the server.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return err
	}
	n.cmd = cmd
	live.Lock()
	if live.cmds == nil {
		live.cmds = make(map[*exec.Cmd]struct{})
	}
	live.cmds[cmd] = struct{}{}
	live.Unlock()
	return nil
}

// kill SIGKILLs one node and waits until it has ended.
func (f *fleet) kill(n *node) {
	if n.cmd == nil {
		return
	}
	_ = n.cmd.Process.Kill() // already exited is fine
	_ = n.cmd.Wait()         // the exit status of a killed process says nothing
	live.Lock()
	delete(live.cmds, n.cmd)
	live.Unlock()
	n.cmd = nil
}

func (f *fleet) killAll() {
	for _, n := range f.nodes {
		f.kill(n)
	}
}

// probeClient polls readiness; like scrapeClient, it shares no
// connection with the measuring client.
var probeClient = &http.Client{Timeout: 2 * time.Second}

// boot starts every node and waits until each answers /readyz with
// 200, polling every 5 ms. It returns the time from just before the
// first exec to the moment the last node was seen ready.
func (f *fleet) boot(ctx context.Context) (time.Duration, error) {
	start := time.Now()
	for _, n := range f.nodes {
		if err := f.start(n); err != nil {
			return 0, fmt.Errorf("start %s: %w", n.url, err)
		}
	}
	deadline := start.Add(90 * time.Second)
	for _, n := range f.nodes {
		for !ready(n.url) {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			if !alive(n.pid()) {
				return 0, fmt.Errorf("crowdd %s exited during boot:\n%s", n.url, tail(n.log, 15))
			}
			if time.Now().After(deadline) {
				return 0, fmt.Errorf("crowdd %s not ready after 90s:\n%s", n.url, tail(n.log, 15))
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return time.Since(start), nil
}

func ready(base string) bool {
	resp, err := probeClient.Get(base + "/readyz")
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// alive reports whether pid is a running (not zombie) process.
func alive(pid int) bool {
	st, err := readProcStat(pid)
	return err == nil && st.state != 'Z'
}

// tail returns the last n lines of a file, for error messages.
func tail(path string, n int) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// dirSizeKB sums the sizes of the files in dir matching any of the
// glob patterns, in KB.
func dirSizeKB(dir string, patterns ...string) (float64, error) {
	var total int64
	for _, p := range patterns {
		matches, err := filepath.Glob(filepath.Join(dir, p))
		if err != nil {
			return 0, err
		}
		for _, m := range matches {
			fi, err := os.Stat(m)
			if err != nil {
				return 0, err
			}
			total += fi.Size()
		}
	}
	if total == 0 {
		return 0, errors.New("no checkpoint files in " + dir)
	}
	return float64(total) / 1024, nil
}
