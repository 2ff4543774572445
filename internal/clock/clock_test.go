package clock

import (
	"context"
	"testing"
	"time"
)

func TestManualFiresTimersAsItSteps(t *testing.T) {
	var m Manual
	start := m.Now()
	if want := time.Date(2015, 3, 23, 9, 0, 0, 0, time.UTC); !start.Equal(want) {
		t.Fatalf("zero Manual reads %v, want %v", start, want)
	}
	now, soon, later := m.After(0), m.After(time.Second), m.After(2*time.Second)
	if got := <-now; !got.Equal(start) {
		t.Fatalf("After(0) fired at %v, want %v", got, start)
	}
	fired := func(c <-chan time.Time) bool {
		select {
		case <-c:
			return true
		default:
			return false
		}
	}
	ctx := context.Background()
	m.Sleep(ctx, 999*time.Millisecond)
	if fired(soon) || fired(later) {
		t.Fatal("a timer fired before its time")
	}
	m.Sleep(ctx, time.Millisecond)
	if !fired(soon) || fired(later) {
		t.Fatal("stepping to a timer's time fired the wrong timers")
	}
	m.Sleep(ctx, time.Hour)
	if !fired(later) {
		t.Fatal("stepping past a timer did not fire it")
	}
	if got := m.Now().Sub(start); got != time.Hour+time.Second {
		t.Fatalf("clock moved %v, want 1h1s", got)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := m.Sleep(cancelled, time.Minute); err != context.Canceled || m.Now().Sub(start) != time.Hour+time.Second {
		t.Fatalf("Sleep on a cancelled context = %v and moved the clock", err)
	}
}

func TestRealSleepEndsWithItsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Real.Sleep(ctx, time.Hour); err != context.Canceled {
		t.Fatalf("Real.Sleep on a cancelled context = %v", err)
	}
	if err := Real.Sleep(context.Background(), time.Millisecond); err != nil {
		t.Fatal(err)
	}
}
