package gen

import "time"

// Schedule is an open-loop sender: event i is due at start + i*Every whether
// or not the system under test keeps up. A sender that falls behind (its own
// goroutine was descheduled, or the wake-up came late) sends everything
// overdue at once and keeps each event's own due time, so a stall shows as
// lateness of the events it delayed instead of silently thinning the load.
type Schedule struct {
	Every time.Duration // spacing of due times
	Count int64         // events to send
	Tick  time.Duration // how long the sender sleeps between bursts

	// Now and Sleep are the clock; nil means the real one. Tests inject a
	// clock to stall the sender deterministically.
	Now   func() time.Time
	Sleep func(time.Duration)
}

// Due is when event i is due on a schedule that started at start.
func (s Schedule) Due(start time.Time, i int64) time.Time {
	return start.Add(time.Duration(i) * s.Every)
}

// Run sends events 0..Count-1, each no earlier than its due time, and
// returns the lateness of every send (send time minus due time). send must
// not block.
func (s Schedule) Run(start time.Time, send func(i int64)) []time.Duration {
	now, sleep := s.Now, s.Sleep
	if now == nil {
		now = time.Now
	}
	if sleep == nil {
		sleep = time.Sleep
	}
	late := make([]time.Duration, 0, s.Count)
	for i := int64(0); i < s.Count; {
		t := now()
		if wait := s.Due(start, i).Sub(t); wait > 0 {
			// Never less than a tick: waking once per event would spend a
			// core on the sender. Events that fall due meanwhile go out in
			// one burst, late by up to a tick, and that lateness is reported.
			sleep(max(wait, s.Tick))
			continue
		}
		for ; i < s.Count && !s.Due(start, i).After(t); i++ {
			send(i)
			late = append(late, t.Sub(s.Due(start, i)))
		}
	}
	return late
}
