package analysis

import (
	"time"

	"manualhijack/internal/event"
	"manualhijack/internal/stats"
)

// WorkSchedule is the §5.5 "ordinary office job" evidence, recomputed
// from hijacker login timestamps: a tight daily schedule, a synchronized
// lunch break, and weekend inactivity.
type WorkSchedule struct {
	// HourlyShare is the share of hijacker logins in each UTC hour.
	HourlyShare [24]float64
	// WeekendShare is the share of hijacker logins on Saturday/Sunday
	// (paper: "largely inactive over the weekends"; a uniform schedule
	// would put 2/7 ≈ 28.6% there).
	WeekendShare float64
	// LunchDip is 1 − (activity in the quietest mid-day hour / mean
	// activity of the adjacent working hours); near 1 means a full stop.
	LunchDip float64
	// ActiveHours is the number of hours with ≥ half the peak hour's
	// activity — a tight schedule keeps this near the shift length.
	ActiveHours int
	Logins      int
}

// WorkScheduleBuilder reproduces §5.5 from the hijacker login log:
// fixed-size hour-of-day and weekend tallies over Dataset 5's hijacker
// logins.
type WorkScheduleBuilder struct {
	hourly  [24]int
	weekend int
	logins  int
}

// NewWorkScheduleBuilder returns an empty builder.
func NewWorkScheduleBuilder() *WorkScheduleBuilder { return &WorkScheduleBuilder{} }

// Observe folds one event into the tallies, mirroring Dataset 5's
// hijacker-login filter.
func (b *WorkScheduleBuilder) Observe(e event.Event) {
	l, ok := e.(event.Login)
	if !ok || l.Actor != event.ActorHijacker {
		return
	}
	b.logins++
	b.hourly[l.When().Hour()]++
	switch l.When().Weekday() {
	case time.Saturday, time.Sunday:
		b.weekend++
	}
}

// WorkSchedule snapshots the schedule observed so far.
func (b *WorkScheduleBuilder) WorkSchedule() WorkSchedule {
	out := WorkSchedule{Logins: b.logins}
	hourly := b.hourly
	weekend := b.weekend
	if out.Logins == 0 {
		return out
	}
	peak := 0
	for h, n := range hourly {
		out.HourlyShare[h] = float64(n) / float64(out.Logins)
		if n > peak {
			peak = n
		}
	}
	for _, n := range hourly {
		if n*2 >= peak && peak > 0 {
			out.ActiveHours++
		}
	}
	out.WeekendShare = stats.Ratio(float64(weekend), float64(out.Logins))
	out.LunchDip = lunchDip(hourly[:])
	return out
}

// lunchDip finds the deepest mid-shift trough: the hour whose activity is
// lowest relative to the mean of its two neighbors, restricted to hours
// where the neighbors are busy (inside a shift).
func lunchDip(hourly []int) float64 {
	best := 0.0
	for h := 1; h < len(hourly)-1; h++ {
		left, right := float64(hourly[h-1]), float64(hourly[h+1])
		if left == 0 || right == 0 {
			continue
		}
		neighbors := (left + right) / 2
		dip := 1 - float64(hourly[h])/neighbors
		if dip > best {
			best = dip
		}
	}
	if best < 0 {
		best = 0
	}
	return best
}
