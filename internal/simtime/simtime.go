// Package simtime models the simulated study period of the reproduction.
//
// The paper analyzes SGNET data collected between January 2008 and May
// 2009. All simulated events carry absolute time.Time values inside this
// window; analyses bucket them by ISO-week-style indices relative to the
// window start.
package simtime

import (
	"fmt"
	"time"
)

// Study window bounds. The paper covers January 2008 through May 2009
// inclusive, which spans 74 whole weeks.
var (
	// StudyStart is the first instant of the observation period.
	StudyStart = time.Date(2008, time.January, 1, 0, 0, 0, 0, time.UTC)
	// StudyEnd is the first instant after the observation period.
	StudyEnd = time.Date(2009, time.June, 1, 0, 0, 0, 0, time.UTC)
)

// Week is the bucketing granularity used by activity analyses.
const Week = 7 * 24 * time.Hour

// WeekCount reports the number of week buckets in the study window,
// counting a trailing partial week as a full bucket.
func WeekCount() int {
	d := StudyEnd.Sub(StudyStart)
	n := int(d / Week)
	if d%Week != 0 {
		n++
	}
	return n
}

// WeekIndex returns the zero-based week bucket of t relative to
// StudyStart. Times before the window map to negative indices.
func WeekIndex(t time.Time) int {
	d := t.Sub(StudyStart)
	if d < 0 {
		return -int((-d + Week - 1) / Week)
	}
	return int(d / Week)
}

// WeekStart returns the first instant of the given week bucket.
func WeekStart(week int) time.Time {
	return StudyStart.Add(time.Duration(week) * Week)
}

// InStudy reports whether t falls inside the study window.
func InStudy(t time.Time) bool {
	return !t.Before(StudyStart) && t.Before(StudyEnd)
}

// ShortDate renders t in the compact day/month form the paper uses for
// activity timelines (e.g. "15/7").
func ShortDate(t time.Time) string {
	return fmt.Sprintf("%d/%d", t.Day(), int(t.Month()))
}

// Interval is a half-open time range [Start, End).
type Interval struct {
	Start time.Time
	End   time.Time
}

// Contains reports whether t falls inside the interval.
func (iv Interval) Contains(t time.Time) bool {
	return !t.Before(iv.Start) && t.Before(iv.End)
}

// Duration returns the length of the interval, or zero when End precedes
// Start.
func (iv Interval) Duration() time.Duration {
	d := iv.End.Sub(iv.Start)
	if d < 0 {
		return 0
	}
	return d
}

// Weeks returns the week bucket indices the interval overlaps.
func (iv Interval) Weeks() []int {
	if !iv.End.After(iv.Start) {
		return nil
	}
	first := WeekIndex(iv.Start)
	last := WeekIndex(iv.End.Add(-time.Nanosecond))
	out := make([]int, 0, last-first+1)
	for w := first; w <= last; w++ {
		out = append(out, w)
	}
	return out
}

// StudyInterval returns the whole study window as an Interval.
func StudyInterval() Interval {
	return Interval{Start: StudyStart, End: StudyEnd}
}
