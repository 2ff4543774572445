package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"crowdselect/internal/crowddb"
)

// clockTick is the kernel's USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat. It is 100 on every Linux this runs on.
const clockTick = 100

// procStat is the part of /proc/<pid>/stat the benchmark reads.
type procStat struct {
	state        byte
	utime, stime time.Duration
}

// parseProcStat parses one /proc/<pid>/stat line. The command name
// sits in parentheses and may itself contain spaces and parentheses,
// so fields are counted from the last ')'.
func parseProcStat(line string) (procStat, error) {
	close := strings.LastIndexByte(line, ')')
	if close < 0 {
		return procStat{}, fmt.Errorf("proc stat: no command in %q", line)
	}
	f := strings.Fields(line[close+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return procStat{}, fmt.Errorf("proc stat: %d fields after the command", len(f))
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return procStat{}, fmt.Errorf("proc stat: utime %q stime %q", f[11], f[12])
	}
	return procStat{
		state: f[0][0],
		utime: time.Duration(ut) * time.Second / clockTick,
		stime: time.Duration(st) * time.Second / clockTick,
	}, nil
}

func readProcStat(pid int) (procStat, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procStat{}, err
	}
	return parseProcStat(string(b))
}

// schedstat is one thread's /proc/<pid>/task/<tid>/schedstat: time on
// a CPU and time runnable but waiting for one.
type schedstat struct{ run, wait time.Duration }

func parseSchedstat(line string) (schedstat, error) {
	f := strings.Fields(line)
	if len(f) < 2 {
		return schedstat{}, fmt.Errorf("schedstat: %q", line)
	}
	run, err1 := strconv.ParseInt(f[0], 10, 64)
	wait, err2 := strconv.ParseInt(f[1], 10, 64)
	if err1 != nil || err2 != nil {
		return schedstat{}, fmt.Errorf("schedstat: %q", line)
	}
	return schedstat{run: time.Duration(run), wait: time.Duration(wait)}, nil
}

// parseVolCtxSwitches reads voluntary_ctxt_switches from a
// /proc/.../status file.
func parseVolCtxSwitches(status string) (int64, error) {
	return statusField(status, "voluntary_ctxt_switches:")
}

// parseVmHWM reads the peak resident set size, in kB.
func parseVmHWM(status string) (int64, error) { return statusField(status, "VmHWM:") }

func statusField(status, key string) (int64, error) {
	sc := bufio.NewScanner(strings.NewReader(status))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("proc status: no %s", key)
}

// procUsage is what the kernel has charged a process so far, summed
// over its threads.
type procUsage struct {
	run, wait time.Duration // schedstat
	sys       time.Duration // stime
	volCtx    int64
	hwmKB     int64
}

func readProcUsage(pid int) (procUsage, error) {
	var u procUsage
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*", pid))
	if err != nil || len(tasks) == 0 {
		return u, fmt.Errorf("proc %d: no tasks (%v)", pid, err)
	}
	for _, t := range tasks {
		// A thread may exit between the glob and the read; its counters
		// then drop out of the sum, as they do for the kernel.
		if b, err := os.ReadFile(t + "/schedstat"); err == nil {
			ss, err := parseSchedstat(string(b))
			if err != nil {
				return u, err
			}
			u.run += ss.run
			u.wait += ss.wait
		}
		if b, err := os.ReadFile(t + "/status"); err == nil {
			n, err := parseVolCtxSwitches(string(b))
			if err != nil {
				return u, err
			}
			u.volCtx += n
		}
	}
	st, err := readProcStat(pid)
	if err != nil {
		return u, err
	}
	u.sys = st.stime
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return u, err
	}
	if u.hwmKB, err = parseVmHWM(string(b)); err != nil {
		return u, err
	}
	return u, nil
}

func (u procUsage) sub(o procUsage) procUsage {
	return procUsage{run: u.run - o.run, wait: u.wait - o.wait, sys: u.sys - o.sys, volCtx: u.volCtx - o.volCtx, hwmKB: u.hwmKB}
}

func (u procUsage) add(o procUsage) procUsage {
	return procUsage{run: u.run + o.run, wait: u.wait + o.wait, sys: u.sys + o.sys, volCtx: u.volCtx + o.volCtx, hwmKB: u.hwmKB + o.hwmKB}
}

// selfCPU is the benchmark's own user+system time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memStats is the part of runtime.MemStats the heap profile's text form
// prints at its end.
type memStats struct {
	totalAlloc, mallocs, heapAlloc, numGC uint64
}

// parseMemStats reads the "# Name = value" trailer of
// /debug/pprof/heap?debug=1.
func parseMemStats(r io.Reader) (memStats, error) {
	var ms memStats
	want := map[string]*uint64{
		"# TotalAlloc": &ms.totalAlloc,
		"# Mallocs":    &ms.mallocs,
		"# HeapAlloc":  &ms.heapAlloc,
		"# NumGC":      &ms.numGC,
	}
	found := 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20) // stack lines of a heap profile can be long
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " = ")
		if !ok {
			continue
		}
		if dst := want[name]; dst != nil {
			n, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
			if err != nil {
				return ms, fmt.Errorf("memstats: %s = %q", name, val)
			}
			*dst = n
			found++
		}
	}
	if err := sc.Err(); err != nil {
		return ms, err
	}
	if found != len(want) {
		return ms, fmt.Errorf("memstats: found %d of %d fields", found, len(want))
	}
	return ms, nil
}

// scrapeClient reads a node's counters and state. A reading may have
// to wait for a compaction whose fsyncs a busy disk holds up, so it gets
// far longer than a readiness poll.
var scrapeClient = &http.Client{Timeout: 30 * time.Second}

// readHeap forces a collection in the server and returns its memory
// statistics afterwards.
func readHeap(base string) (memStats, error) {
	resp, err := scrapeClient.Get(base + "/debug/pprof/heap?debug=1&gc=1")
	if err != nil {
		return memStats{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return memStats{}, fmt.Errorf("heap profile: %s", resp.Status)
	}
	return parseMemStats(resp.Body)
}

// getJSON decodes a GET response into out and insists on a 200.
func getJSON(base, path string, out any) error {
	resp, err := scrapeClient.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, out)
}

// counters is one scrape of everything a node counts about itself.
type counters struct {
	heap    memStats
	usage   procUsage
	metrics crowddb.MetricsSnapshot
}

// scrape reads a node's counters on one side of a measured phase. The
// heap is read twice, each reading forcing a collection, so that
// sync.Pool victims are gone and HeapAlloc is what the work left
// resident. Whatever can be read without disturbing the server is read
// on the side of the heap readings that faces the phase, and the
// allocation counts come from the heap reading closest to it: the
// second before the phase, the first after it.
func scrape(n *node, after bool) (counters, error) {
	var c counters
	var err error
	if after {
		if c.usage, err = readProcUsage(n.pid()); err != nil {
			return c, err
		}
		if err := getJSON(n.url, "/api/v1/metrics", &c.metrics); err != nil {
			return c, err
		}
	}
	first, err := readHeap(n.url)
	if err != nil {
		return c, err
	}
	second, err := readHeap(n.url)
	if err != nil {
		return c, err
	}
	if after {
		c.heap = first
		c.heap.heapAlloc = second.heapAlloc
		return c, nil
	}
	c.heap = second
	if err := getJSON(n.url, "/api/v1/metrics", &c.metrics); err != nil {
		return c, err
	}
	c.usage, err = readProcUsage(n.pid())
	return c, err
}
