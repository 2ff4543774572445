package main

import (
	"strings"
	"testing"
	"time"
)

// The trailer of GET /debug/pprof/heap?debug=1, after the sample
// records.
const cannedHeap = `heap profile: 1: 32 [2: 64] @ heap/1048576
1: 32 [2: 64] @ 0x45e7a5 0x45e6f1
#	0x45e7a4	main.f+0x24	/x/main.go:10

# runtime.MemStats
# Alloc = 1203928
# TotalAlloc = 9876543210
# Sys = 20534288
# Lookups = 0
# Mallocs = 45061
# Frees = 40121
# HeapAlloc = 1203928
# HeapSys = 7634944
# HeapIdle = 5128192
# NextGC = 4194304
# LastGC = 1727500000000000000
# PauseNs = [25 30 0 0]
# NumGC = 17
# NumForcedGC = 2
# GCCPUFraction = 0.001
# DebugGC = false
# MaxRSS = 12345
`

func TestParseMemStats(t *testing.T) {
	ms, err := parseMemStats(strings.NewReader(cannedHeap))
	if err != nil {
		t.Fatal(err)
	}
	want := memStats{totalAlloc: 9876543210, mallocs: 45061, heapAlloc: 1203928, numGC: 17}
	if ms != want {
		t.Errorf("parsed %+v, want %+v", ms, want)
	}
	if _, err := parseMemStats(strings.NewReader("# TotalAlloc = 5\n")); err == nil {
		t.Error("a trailer missing fields parsed without error")
	}
	if _, err := parseMemStats(strings.NewReader(strings.Replace(cannedHeap, "# NumGC = 17", "# NumGC = many", 1))); err == nil {
		t.Error("a non-numeric field parsed without error")
	}
}

func TestParseSchedstat(t *testing.T) {
	ss, err := parseSchedstat("123456789 2345678 42\n")
	if err != nil {
		t.Fatal(err)
	}
	if ss.run != 123456789*time.Nanosecond || ss.wait != 2345678*time.Nanosecond {
		t.Errorf("parsed %+v", ss)
	}
	for _, bad := range []string{"", "12", "a b c"} {
		if _, err := parseSchedstat(bad); err == nil {
			t.Errorf("schedstat %q parsed without error", bad)
		}
	}
}

func TestParseProcStat(t *testing.T) {
	// A command name with a space and a parenthesis shifts naive field
	// splitting.
	line := "4242 (crowd d) x) S 1 4242 4242 0 -1 4194560 1500 0 3 0 250 75 0 0 20 0 9 0 1234567 1000000 200 18446744073709551615\n"
	st, err := parseProcStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if st.state != 'S' || st.utime != 2500*time.Millisecond || st.stime != 750*time.Millisecond {
		t.Errorf("parsed %+v, want state S, utime 2.5s, stime 0.75s", st)
	}
	if _, err := parseProcStat("4242 crowdd S 1"); err == nil {
		t.Error("a line without a command parsed without error")
	}
}

func TestStatusFields(t *testing.T) {
	status := "Name:\tcrowdd\nVmPeak:\t  900000 kB\nVmHWM:\t   48204 kB\nvoluntary_ctxt_switches:\t1234\nnonvoluntary_ctxt_switches:\t56\n"
	if n, err := parseVmHWM(status); err != nil || n != 48204 {
		t.Errorf("VmHWM = %d, %v", n, err)
	}
	if n, err := parseVolCtxSwitches(status); err != nil || n != 1234 {
		t.Errorf("voluntary_ctxt_switches = %d, %v: the nonvoluntary line must not match", n, err)
	}
	if _, err := parseVmHWM("Name:\tx\n"); err == nil {
		t.Error("a status without VmHWM parsed without error")
	}
}
