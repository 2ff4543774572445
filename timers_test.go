package crowdselect_test

import (
	"go/types"
	"sort"
	"testing"
)

// TestTimersReadTheClock fails, naming file:line, on a timer that runs
// on the wall clock in the non-test code of the packages whose timers
// schedule work or decide state: the DB's maintenance, the transfer
// source and replica, the supervisor and the client's backoff and
// breaker. Each reads its component's clock.Clock instead, so a test
// steps one manual clock rather than shortening intervals and
// sleeping. Any use of one of the time package's timer functions
// counts, called or passed as a value; internal/clock, which wraps
// them, is not among the packages checked. Network deadlines and
// latency measurements read time.Now and time.Since, which stay on the
// wall clock and are not checked.
func TestTimersReadTheClock(t *testing.T) {
	fset, pkgs, _ := loadProgram(t)
	timers := map[string]bool{"After": true, "NewTimer": true, "NewTicker": true, "Tick": true, "AfterFunc": true, "Sleep": true}
	clocked := map[string]bool{"internal/crowddb": true, "internal/fleet": true, "internal/crowdclient": true}
	var wall []string
	for _, p := range pkgs {
		if !clocked[p.dir] {
			continue
		}
		for id, obj := range p.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !timers[fn.Name()] || fn.Type().(*types.Signature).Recv() != nil {
				continue
			}
			wall = append(wall, fset.Position(id.Pos()).String()+": time."+fn.Name()+" runs on the wall clock; wait on the component's clock.Clock")
		}
	}
	sort.Strings(wall)
	for _, msg := range wall {
		t.Error(msg)
	}
}
