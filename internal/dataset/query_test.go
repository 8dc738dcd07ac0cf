package dataset

import (
	"testing"
	"time"

	"repro/internal/simtime"
)

func queryDataset(t *testing.T) *Dataset {
	t.Helper()
	d := New()
	mk := func(id, attacker, sensor string, loc, port int, proto, md5 string, week int) Event {
		e := testEvent(id, md5, simtime.WeekStart(week))
		e.Attacker = attacker
		e.Sensor = sensor
		e.SensorLocation = loc
		e.DestPort = port
		e.Protocol = proto
		if md5 == "" {
			e.Sample.MD5 = ""
			e.DownloadOutcome = "failed"
		}
		return e
	}
	events := []Event{
		mk("e1", "1.1.1.1", "9.9.9.1", 0, 445, "csend", "m1", 1),
		mk("e2", "1.1.1.1", "9.9.9.2", 1, 445, "csend", "m1", 5),
		mk("e3", "2.2.2.2", "9.9.9.1", 0, 135, "ftp", "m2", 10),
		mk("e4", "3.3.3.3", "9.9.9.3", 2, 445, "csend", "", 20),
	}
	for _, e := range events {
		if err := d.AddEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// matching returns the dataset's events that q matches, in stream order.
func matching(d *Dataset, q Query) []Event {
	var out []Event
	d.EachEvent(func(e *Event) {
		if q.Matches(*e) {
			out = append(out, *e)
		}
	})
	return out
}

func TestQueryZeroValueMatchesAll(t *testing.T) {
	d := queryDataset(t)
	if got := len(matching(d, Query{})); got != 4 {
		t.Errorf("empty query matched %d, want 4", got)
	}
}

func TestQueryFilters(t *testing.T) {
	d := queryDataset(t)
	loc0 := 0
	tests := []struct {
		name string
		q    Query
		want []string
	}{
		{"by attacker", Query{Attacker: "1.1.1.1"}, []string{"e1", "e2"}},
		{"by sensor", Query{Sensor: "9.9.9.1"}, []string{"e1", "e3"}},
		{"by location", Query{SensorLocation: &loc0}, []string{"e1", "e3"}},
		{"by port", Query{DestPort: 135}, []string{"e3"}},
		{"by protocol", Query{Protocol: "ftp"}, []string{"e3"}},
		{"with sample", Query{WithSample: true}, []string{"e1", "e2", "e3"}},
		{"by md5", Query{SampleMD5: "m1"}, []string{"e1", "e2"}},
		{"time from", Query{From: simtime.WeekStart(6)}, []string{"e3", "e4"}},
		{"time to", Query{To: simtime.WeekStart(6)}, []string{"e1", "e2"}},
		{"time range", Query{From: simtime.WeekStart(2), To: simtime.WeekStart(12)}, []string{"e2", "e3"}},
		{"combined", Query{Attacker: "1.1.1.1", DestPort: 445, From: simtime.WeekStart(2)}, []string{"e2"}},
		{"no match", Query{Attacker: "nope"}, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := matching(d, tt.q)
			if len(got) != len(tt.want) {
				t.Fatalf("matched %d events, want %d", len(got), len(tt.want))
			}
			for i := range got {
				if got[i].ID != tt.want[i] {
					t.Fatalf("event %d = %s, want %s", i, got[i].ID, tt.want[i])
				}
			}
		})
	}
}

func TestAttackers(t *testing.T) {
	d := queryDataset(t)
	got := d.Attackers(Query{DestPort: 445})
	if len(got) != 2 {
		t.Fatalf("attackers = %v", got)
	}
	if got[0] != "1.1.1.1" || got[1] != "3.3.3.3" {
		t.Errorf("attackers = %v (stream order expected)", got)
	}
}

func TestQueryTimeBoundsAreHalfOpen(t *testing.T) {
	d := queryDataset(t)
	exactly := simtime.WeekStart(5)
	if got := len(matching(d, Query{From: exactly, To: exactly.Add(time.Hour)})); got != 1 {
		t.Errorf("half-open interval matched %d, want 1 (From inclusive)", got)
	}
	if got := len(matching(d, Query{To: exactly})); got != 1 {
		t.Errorf("To exclusive matched %d, want 1", got)
	}
}
