package simtime

import (
	"testing"
	"testing/quick"
	"time"
)

func TestWeekCountCoversStudy(t *testing.T) {
	n := WeekCount()
	if n < 70 || n > 80 {
		t.Fatalf("WeekCount = %d, want ~74 for Jan 2008 - May 2009", n)
	}
	if got := WeekIndex(StudyEnd.Add(-time.Nanosecond)); got != n-1 {
		t.Fatalf("last instant falls in week %d, want %d", got, n-1)
	}
}

func TestWeekIndex(t *testing.T) {
	tests := []struct {
		name string
		t    time.Time
		want int
	}{
		{"start", StudyStart, 0},
		{"six days in", StudyStart.Add(6 * 24 * time.Hour), 0},
		{"seven days in", StudyStart.Add(7 * 24 * time.Hour), 1},
		{"one week before", StudyStart.Add(-1 * time.Hour), -1},
		{"eight days before", StudyStart.Add(-8 * 24 * time.Hour), -2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := WeekIndex(tt.t); got != tt.want {
				t.Errorf("WeekIndex(%v) = %d, want %d", tt.t, got, tt.want)
			}
		})
	}
}

func TestWeekStartRoundTrip(t *testing.T) {
	f := func(w8 uint8) bool {
		w := int(w8) % WeekCount()
		return WeekIndex(WeekStart(w)) == w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInStudyAndClamp(t *testing.T) {
	if !InStudy(StudyStart) {
		t.Error("StudyStart must be in study")
	}
	if InStudy(StudyEnd) {
		t.Error("StudyEnd is exclusive")
	}
}

func TestShortDate(t *testing.T) {
	d := time.Date(2008, time.July, 15, 10, 0, 0, 0, time.UTC)
	if got := ShortDate(d); got != "15/7" {
		t.Errorf("ShortDate = %q, want 15/7", got)
	}
}

func TestIntervalContains(t *testing.T) {
	iv := Interval{Start: StudyStart, End: StudyStart.Add(Week)}
	if !iv.Contains(StudyStart) {
		t.Error("interval start must be contained")
	}
	if iv.Contains(iv.End) {
		t.Error("interval end is exclusive")
	}
	if iv.Contains(StudyStart.Add(-time.Second)) {
		t.Error("before start must not be contained")
	}
}

func TestIntervalDuration(t *testing.T) {
	iv := Interval{Start: StudyStart, End: StudyStart.Add(3 * time.Hour)}
	if got := iv.Duration(); got != 3*time.Hour {
		t.Errorf("Duration = %v", got)
	}
	rev := Interval{Start: iv.End, End: iv.Start}
	if got := rev.Duration(); got != 0 {
		t.Errorf("reversed Duration = %v, want 0", got)
	}
}

func TestIntervalWeeks(t *testing.T) {
	tests := []struct {
		name string
		iv   Interval
		want []int
	}{
		{
			"within one week",
			Interval{StudyStart.Add(time.Hour), StudyStart.Add(2 * time.Hour)},
			[]int{0},
		},
		{
			"spanning three weeks",
			Interval{StudyStart.Add(6 * 24 * time.Hour), StudyStart.Add(15 * 24 * time.Hour)},
			[]int{0, 1, 2},
		},
		{
			"exact week boundary excluded",
			Interval{StudyStart, StudyStart.Add(Week)},
			[]int{0},
		},
		{"empty", Interval{StudyStart, StudyStart}, nil},
		{"reversed", Interval{StudyStart.Add(Week), StudyStart}, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.iv.Weeks()
			if len(got) != len(tt.want) {
				t.Fatalf("Weeks = %v, want %v", got, tt.want)
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Fatalf("Weeks = %v, want %v", got, tt.want)
				}
			}
		})
	}
}

func TestStudyInterval(t *testing.T) {
	iv := StudyInterval()
	if !iv.Start.Equal(StudyStart) || !iv.End.Equal(StudyEnd) {
		t.Errorf("StudyInterval = %+v", iv)
	}
	if got := len(iv.Weeks()); got != WeekCount() {
		t.Errorf("StudyInterval covers %d weeks, want %d", got, WeekCount())
	}
}
