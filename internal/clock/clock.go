// Package clock is the time of every timer that schedules work or
// decides state; network deadlines stay on the wall clock.
package clock

import (
	"context"
	"sync"
	"time"
)

// Clock tells the time and waits on it. Sleep returns ctx's error if
// ctx ends first.
type Clock interface {
	Now() time.Time
	After(d time.Duration) <-chan time.Time
	Sleep(ctx context.Context, d time.Duration) error
}

// Real is the wall clock.
var Real Clock = wall{}

type wall struct{}

func (wall) Now() time.Time                         { return time.Now() }
func (wall) After(d time.Duration) <-chan time.Time { return time.After(d) }

func (wall) Sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Manual is a Clock that moves only when told to. Sleep is the step: it
// moves the time on by d at once and fires every After come due, as if
// the sleeper had waited d with nothing else going on. Its zero value
// reads 09:00 UTC, 23 March 2015. Safe for concurrent use.
type Manual struct {
	mu     sync.Mutex
	now    time.Duration // past the zero value's time
	timers []timer
}

type timer struct {
	at time.Duration
	c  chan time.Time
}

var epoch = time.Date(2015, 3, 23, 9, 0, 0, 0, time.UTC)

func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return epoch.Add(m.now)
}

func (m *Manual) After(d time.Duration) <-chan time.Time {
	c := make(chan time.Time, 1)
	m.mu.Lock()
	m.timers = append(m.timers, timer{m.now + d, c})
	m.mu.Unlock()
	m.Sleep(context.Background(), 0) // fires it if d <= 0
	return c
}

func (m *Manual) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.now += max(d, 0)
	kept := m.timers[:0]
	for _, t := range m.timers {
		if t.at <= m.now {
			t.c <- epoch.Add(m.now)
		} else {
			kept = append(kept, t)
		}
	}
	m.timers = kept
	return nil
}
