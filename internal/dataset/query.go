package dataset

import (
	"time"
)

// Query filters the event stream. Zero-valued fields match everything, so
// queries compose by setting only the constraints they need.
type Query struct {
	// From/To bound the event time (half-open interval [From, To)).
	From, To time.Time
	// Attacker selects a single attacking address.
	Attacker string
	// Sensor selects a single honeypot address.
	Sensor string
	// SensorLocation selects a deployment location (use -1 or leave the
	// whole field unset via MatchAnyLocation).
	SensorLocation *int
	// DestPort selects the exploit destination port.
	DestPort int
	// Protocol selects the download protocol.
	Protocol string
	// WithSample restricts to events that stored a payload.
	WithSample bool
	// SampleMD5 selects events delivering one binary.
	SampleMD5 string
}

// Matches reports whether the event satisfies every set constraint.
func (q Query) Matches(e Event) bool {
	if !q.From.IsZero() && e.Time.Before(q.From) {
		return false
	}
	if !q.To.IsZero() && !e.Time.Before(q.To) {
		return false
	}
	if q.Attacker != "" && e.Attacker != q.Attacker {
		return false
	}
	if q.Sensor != "" && e.Sensor != q.Sensor {
		return false
	}
	if q.SensorLocation != nil && e.SensorLocation != *q.SensorLocation {
		return false
	}
	if q.DestPort != 0 && e.DestPort != q.DestPort {
		return false
	}
	if q.Protocol != "" && e.Protocol != q.Protocol {
		return false
	}
	if q.WithSample && !e.HasSample() {
		return false
	}
	if q.SampleMD5 != "" && e.Sample.MD5 != q.SampleMD5 {
		return false
	}
	return true
}

// Attackers returns the distinct attacker addresses among matching events.
func (d *Dataset) Attackers(q Query) []string {
	seen := make(map[string]bool)
	var out []string
	d.EachEvent(func(e *Event) {
		if q.Matches(*e) && !seen[e.Attacker] {
			seen[e.Attacker] = true
			out = append(out, e.Attacker)
		}
	})
	return out
}
