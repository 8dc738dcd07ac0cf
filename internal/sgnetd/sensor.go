package sgnetd

import (
	"bufio"
	"fmt"
	"net"

	"repro/internal/dataset"
	"repro/internal/scriptgen"
)

// SensorStats counts how a sensor handled its traffic.
type SensorStats struct {
	// Local is the number of conversations classified autonomously.
	Local int
	// Proxied is the number of conversations forwarded to the gateway.
	Proxied int
	// SnapshotsApplied counts FSM refreshes received.
	SnapshotsApplied int
	// EventsReported counts event records shipped to the gateway.
	EventsReported int
}

// Sensor is one low-cost honeypot node: it classifies known activity with
// its local FSM copy and proxies unknown activity to the gateway.
//
// A Sensor is not safe for concurrent use; the deployment runs one
// goroutine per sensor, mirroring the single-threaded honeypot processes
// of the real system.
type Sensor struct {
	id    string
	conn  net.Conn
	r     *bufio.Reader
	w     *bufio.Writer
	fsms  *scriptgen.Set
	ver   int
	stats SensorStats
}

// Dial connects a sensor to the gateway and provisions it with the
// current FSM snapshot.
func Dial(addr, sensorID string) (*Sensor, error) {
	if sensorID == "" {
		return nil, fmt.Errorf("sgnetd: sensor needs an id")
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("sgnetd: sensor dial: %w", err)
	}
	s := &Sensor{
		id:   sensorID,
		conn: conn,
		r:    bufio.NewReader(conn),
		w:    bufio.NewWriter(conn),
	}
	if err := writeMsg(s.w, &Envelope{Type: MsgHello, Hello: &Hello{SensorID: sensorID}}); err != nil {
		_ = conn.Close()
		return nil, err
	}
	env, err := readMsg(s.r)
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	if env.Type != MsgWelcome || env.Welcome == nil {
		_ = conn.Close()
		return nil, fmt.Errorf("sgnetd: expected welcome, got %q (%s)", env.Type, env.Error)
	}
	if err := s.applySnapshot(env.Welcome.Snapshot); err != nil {
		_ = conn.Close()
		return nil, err
	}
	return s, nil
}

func (s *Sensor) applySnapshot(snap scriptgen.SetSnapshot) error {
	fsms, err := scriptgen.RestoreSet(snap)
	if err != nil {
		return fmt.Errorf("sgnetd: sensor %s applying snapshot: %w", s.id, err)
	}
	s.fsms = fsms
	s.ver = snap.Version
	s.stats.SnapshotsApplied++
	return nil
}

// Handle classifies one conversation: locally when the sensor's FSM copy
// knows the activity, otherwise by proxying to the gateway (which learns
// from it). It returns the FSM path identifier and whether classification
// succeeded anywhere.
func (s *Sensor) Handle(port int, clientMessages [][]byte) (path string, ok bool, err error) {
	if path, ok := s.fsms.Classify(port, clientMessages); ok {
		s.stats.Local++
		return path, true, nil
	}
	s.stats.Proxied++
	err = writeMsg(s.w, &Envelope{Type: MsgObserve, Observe: &Observe{
		Port:         port,
		Messages:     clientMessages,
		KnownVersion: s.ver,
	}})
	if err != nil {
		return "", false, err
	}
	env, err := readMsg(s.r)
	if err != nil {
		return "", false, err
	}
	if env.Type != MsgObserveReply || env.ObserveReply == nil {
		return "", false, fmt.Errorf("sgnetd: expected observe-reply, got %q (%s)", env.Type, env.Error)
	}
	if env.ObserveReply.Snapshot != nil {
		if err := s.applySnapshot(*env.ObserveReply.Snapshot); err != nil {
			return "", false, err
		}
	}
	return env.ObserveReply.Path, env.ObserveReply.OK, nil
}

// Sync pulls the gateway's current FSM snapshot by re-introducing the
// sensor (the welcome reply always carries a fresh snapshot).
func (s *Sensor) Sync() error {
	if err := writeMsg(s.w, &Envelope{Type: MsgHello, Hello: &Hello{SensorID: s.id}}); err != nil {
		return err
	}
	env, err := readMsg(s.r)
	if err != nil {
		return err
	}
	if env.Type != MsgWelcome || env.Welcome == nil {
		return fmt.Errorf("sgnetd: expected welcome on sync, got %q (%s)", env.Type, env.Error)
	}
	return s.applySnapshot(env.Welcome.Snapshot)
}

// ClassifyLocal classifies against the sensor's local models only, never
// contacting the gateway. Use after Sync when the final models are needed
// for a bulk classification pass.
func (s *Sensor) ClassifyLocal(port int, clientMessages [][]byte) (string, bool) {
	return s.fsms.Classify(port, clientMessages)
}

// Report ships one completed event record to the gateway.
func (s *Sensor) Report(ev dataset.Event) error {
	if err := writeMsg(s.w, &Envelope{Type: MsgEvent, Event: &ev}); err != nil {
		return err
	}
	env, err := readMsg(s.r)
	if err != nil {
		return err
	}
	switch env.Type {
	case MsgAck:
		s.stats.EventsReported++
		return nil
	case MsgError:
		return fmt.Errorf("sgnetd: gateway rejected event: %s", env.Error)
	default:
		return fmt.Errorf("sgnetd: expected ack, got %q", env.Type)
	}
}

// Stats returns the sensor counters.
func (s *Sensor) Stats() SensorStats {
	return s.stats
}

// Version returns the sensor's current FSM snapshot version.
func (s *Sensor) Version() int { return s.ver }

// Close disconnects the sensor.
func (s *Sensor) Close() error {
	return s.conn.Close()
}
