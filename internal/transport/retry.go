package transport

import "time"

// DefaultDialTimeout bounds every fabric's rendezvous when its Config
// leaves DialTimeout zero: how long TCP dialers retry and listeners
// wait, and how long shm openers poll for their peers' ring files.
const DefaultDialTimeout = 10 * time.Second

// firstPause is the retry schedule's first pause. It doubles after
// every failed attempt up to the caller's cap, so a peer that comes up
// a millisecond late costs about a millisecond, while a peer that is
// slow to start is polled no faster than the cap.
const firstPause = time.Millisecond

// Retry is the rendezvous loop of the wire fabrics: it calls attempt
// at once and again after each pause until attempt succeeds, reports
// its failure as not worth retrying, or deadline passes. The pauses
// start at 1 ms and double up to maxPause; none runs past deadline, and
// no attempt starts after it. Retry returns nil on success and
// otherwise the last attempt's error, for the caller to wrap with the
// rank and the address or ring it was waiting for.
func Retry(deadline time.Time, maxPause time.Duration, attempt func() (retry bool, err error)) error {
	return retryWith(time.Now, time.Sleep, deadline, maxPause, attempt)
}

// retryWith is Retry over an injected clock and sleep, so the schedule
// can be pinned without wall-clock assertions.
func retryWith(now func() time.Time, sleep func(time.Duration), deadline time.Time,
	maxPause time.Duration, attempt func() (bool, error)) error {
	pause := min(firstPause, maxPause)
	for {
		retry, err := attempt()
		if err == nil || !retry {
			return err
		}
		left := deadline.Sub(now())
		if left <= 0 {
			return err
		}
		sleep(min(pause, left))
		if now().After(deadline) {
			return err
		}
		pause = min(2*pause, maxPause)
	}
}
