package main

import "time"

// openLoop issues call(0..n-1) on a fixed schedule: call i is due at
// start + i*interval whatever the calls before it cost. One goroutine serves
// the schedule, so a call is issued at its due time or when its predecessor
// returns, whichever is later. Latency is charged from the due time — a stall
// is paid by every call that fell due while it lasted, not only by the one
// that caused it — and late records how far behind its due time each call was
// issued, which is queueing when the system is slow and generator error when
// it is not.
func openLoop(start time.Time, interval time.Duration, n int, call func(i int)) (latency, late []time.Duration) {
	latency = make([]time.Duration, n)
	late = make([]time.Duration, n)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		late[i] = time.Since(due)
		call(i)
		latency[i] = time.Since(due)
	}
	return latency, late
}
