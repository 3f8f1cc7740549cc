package transport

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"
)

// fakeClock is retryWith's injected clock: sleep advances it by the
// requested pause plus a fixed lateness, as a real timer may overshoot.
type fakeClock struct {
	t0, t  time.Time
	late   time.Duration
	pauses []time.Duration
}

func (c *fakeClock) now() time.Time { return c.t }

func (c *fakeClock) sleep(d time.Duration) {
	c.pauses = append(c.pauses, d)
	c.t = c.t.Add(d + c.late)
}

// failing returns an attempt that fails retryably until call ok (never
// when ok < 0) and records the fake time of every call.
func failing(c *fakeClock, ok int, at *[]time.Duration) func() (bool, error) {
	return func() (bool, error) {
		*at = append(*at, c.t.Sub(c.t0))
		if len(*at) == ok {
			return true, nil
		}
		return true, fmt.Errorf("attempt %d", len(*at))
	}
}

func ms(v ...float64) []time.Duration {
	out := make([]time.Duration, len(v))
	for i, x := range v {
		out[i] = time.Duration(x * float64(time.Millisecond))
	}
	return out
}

// TestRetrySchedule pins the rendezvous schedule of both wire fabrics:
// an attempt at once, pauses from 1 ms doubling to the cap, the last
// pause clipped to the deadline, no attempt after it, and the last
// attempt's error returned.
func TestRetrySchedule(t *testing.T) {
	cases := []struct {
		name             string
		cap, deadline    time.Duration
		late             time.Duration
		ok               int
		pauses, attempts []time.Duration
		err              string
	}{
		{name: "tcp cap", cap: 20 * time.Millisecond, deadline: 100 * time.Millisecond, ok: -1,
			pauses:   ms(1, 2, 4, 8, 16, 20, 20, 20, 9),
			attempts: ms(0, 1, 3, 7, 15, 31, 51, 71, 91, 100),
			err:      "attempt 10"},
		{name: "shm cap", cap: 2 * time.Millisecond, deadline: 7 * time.Millisecond, ok: -1,
			pauses:   ms(1, 2, 2, 2),
			attempts: ms(0, 1, 3, 5, 7),
			err:      "attempt 5"},
		{name: "late timer", cap: 20 * time.Millisecond, deadline: 10 * time.Millisecond, ok: -1,
			late:     500 * time.Microsecond,
			pauses:   ms(1, 2, 4, 1.5),
			attempts: ms(0, 1.5, 4, 8.5),
			err:      "attempt 4"},
		{name: "deadline passed", cap: 20 * time.Millisecond, deadline: -time.Second, ok: -1,
			attempts: ms(0),
			err:      "attempt 1"},
		{name: "third attempt succeeds", cap: 20 * time.Millisecond, deadline: time.Second, ok: 3,
			pauses:   ms(1, 2),
			attempts: ms(0, 1, 3)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := &fakeClock{t0: time.Unix(1000, 0), t: time.Unix(1000, 0), late: tc.late}
			var at []time.Duration
			err := retryWith(c.now, c.sleep, c.t0.Add(tc.deadline), tc.cap, failing(c, tc.ok, &at))
			if got := fmt.Sprint(err); (tc.err == "" && err != nil) || (tc.err != "" && got != tc.err) {
				t.Fatalf("err = %v, want %q", err, tc.err)
			}
			if !slices.Equal(c.pauses, tc.pauses) {
				t.Errorf("pauses = %v, want %v", c.pauses, tc.pauses)
			}
			if !slices.Equal(at, tc.attempts) {
				t.Errorf("attempts at %v, want %v", at, tc.attempts)
			}
			for i, p := range c.pauses {
				if i == 0 && p > time.Millisecond {
					t.Errorf("first pause %v exceeds 1ms", p)
				}
				if p > tc.cap {
					t.Errorf("pause %d = %v exceeds the cap %v", i, p, tc.cap)
				}
				if end := at[i] + p; end > tc.deadline {
					t.Errorf("pause %d ends at %v, past the deadline %v", i, end, tc.deadline)
				}
			}
			for i, a := range at {
				if i > 0 && a > tc.deadline {
					t.Errorf("attempt %d at %v, after the deadline %v", i+1, a, tc.deadline)
				}
			}
		})
	}
}

// TestRetryStopsOnPermanentError: an attempt that reports its failure
// as not worth retrying ends the loop at once with that error.
func TestRetryStopsOnPermanentError(t *testing.T) {
	c := &fakeClock{t0: time.Unix(1000, 0), t: time.Unix(1000, 0)}
	perm := errors.New("permission denied")
	calls := 0
	err := retryWith(c.now, c.sleep, c.t.Add(time.Second), 20*time.Millisecond, func() (bool, error) {
		calls++
		return false, perm
	})
	if err != perm || calls != 1 || len(c.pauses) != 0 {
		t.Fatalf("err %v after %d calls and pauses %v, want %v after 1 call and none", err, calls, c.pauses, perm)
	}
}
