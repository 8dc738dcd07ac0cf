// Package sandbox implements an Anubis-class dynamic analysis system: it
// executes behavior programs against a simulated operating system and a
// mutable external network environment, under a bounded execution budget,
// and emits behavioral profiles.
//
// The environment is the key reproduction lever for §4.2 of the paper:
// sample behaviour depends on external conditions (availability of C&C
// servers, DNS entries removed from the database, malware distribution
// sites serving different component sets over time), so the same program
// executed at different times legitimately produces different profiles.
package sandbox

import (
	"fmt"
	"time"

	"repro/internal/behavior"
	"repro/internal/netmodel"
	"repro/internal/simtime"
)

// Environment models the external world a sandboxed sample can reach:
// DNS, plain TCP endpoints, IRC command-and-control servers, and HTTP
// malware-distribution sites. Every entry carries availability windows;
// anything not registered is unreachable.
type Environment struct {
	dns       map[string]*dnsEntry
	endpoints map[string][]simtime.Interval
	irc       map[string]*ircRoom
	http      map[string]*httpPath
}

type dnsEntry struct {
	ip      netmodel.IP
	windows []simtime.Interval
}

type ircRoom struct {
	commands *behavior.Program
	windows  []simtime.Interval
}

type httpPath struct {
	component *behavior.Program
	windows   []simtime.Interval
}

// NewEnvironment returns an empty environment in which every network
// operation fails.
func NewEnvironment() *Environment {
	return &Environment{
		dns:       make(map[string]*dnsEntry),
		endpoints: make(map[string][]simtime.Interval),
		irc:       make(map[string]*ircRoom),
		http:      make(map[string]*httpPath),
	}
}

func inWindows(windows []simtime.Interval, at time.Time) bool {
	for _, w := range windows {
		if w.Contains(at) {
			return true
		}
	}
	return false
}

func endpointKey(host string, port int) string {
	return fmt.Sprintf("%s:%d", host, port)
}

func ircKey(server string, port int, room string) string {
	return fmt.Sprintf("%s:%d/%s", server, port, room)
}

func httpKey(host, path string) string {
	return host + path
}

// AddDNS registers a DNS name resolving to ip during the given windows.
// With no windows, the entry is valid for the whole study period.
func (e *Environment) AddDNS(name string, ip netmodel.IP, windows ...simtime.Interval) {
	if len(windows) == 0 {
		windows = []simtime.Interval{simtime.StudyInterval()}
	}
	e.dns[name] = &dnsEntry{ip: ip, windows: windows}
}

// ResolveDNS resolves name at the given instant.
func (e *Environment) ResolveDNS(name string, at time.Time) (netmodel.IP, bool) {
	d, ok := e.dns[name]
	if !ok || !inWindows(d.windows, at) {
		return 0, false
	}
	return d.ip, true
}

// Reachable reports whether host:port accepts connections at the instant.
// Host names are resolved through the environment DNS first; dotted
// addresses are used literally.
func (e *Environment) Reachable(host string, port int, at time.Time) bool {
	target := host
	if _, err := netmodel.ParseIP(host); err != nil {
		ip, ok := e.ResolveDNS(host, at)
		if !ok {
			return false
		}
		target = ip.String()
	}
	w, ok := e.endpoints[endpointKey(target, port)]
	return ok && inWindows(w, at)
}

// AddIRC registers an IRC C&C room on server:port whose bot-herder sends
// the given command program during the windows. The endpoint is also
// registered as reachable for those windows.
func (e *Environment) AddIRC(server netmodel.IP, port int, room string, commands *behavior.Program, windows ...simtime.Interval) {
	if len(windows) == 0 {
		windows = []simtime.Interval{simtime.StudyInterval()}
	}
	e.irc[ircKey(server.String(), port, room)] = &ircRoom{commands: commands, windows: windows}
	e.endpoints[endpointKey(server.String(), port)] = append(e.endpoints[endpointKey(server.String(), port)], windows...)
}

// ExtendIRC adds availability windows to an already-registered IRC room
// without replacing its command program or existing windows. It reports
// whether the room was found. Poisoning campaigns use this to keep a
// victim's C&C observable while attacker samples execute, without
// perturbing the victim's own availability schedule.
func (e *Environment) ExtendIRC(server netmodel.IP, port int, room string, windows ...simtime.Interval) bool {
	rm, ok := e.irc[ircKey(server.String(), port, room)]
	if !ok {
		return false
	}
	rm.windows = append(rm.windows, windows...)
	key := endpointKey(server.String(), port)
	e.endpoints[key] = append(e.endpoints[key], windows...)
	return true
}

// ExtendHTTP adds availability windows to an already-registered
// malware-distribution path, reporting whether the path was found.
func (e *Environment) ExtendHTTP(host, path string, windows ...simtime.Interval) bool {
	p, ok := e.http[httpKey(host, path)]
	if !ok {
		return false
	}
	p.windows = append(p.windows, windows...)
	return true
}

// IRCCommands returns the command program a bot joining the room would
// receive at the instant.
func (e *Environment) IRCCommands(server string, port int, room string, at time.Time) (*behavior.Program, bool) {
	rm, ok := e.irc[ircKey(server, port, room)]
	if !ok || !inWindows(rm.windows, at) {
		return nil, false
	}
	return rm.commands, true
}

// AddHTTP registers a malware-distribution path serving a downloadable
// component during the windows. Pass a nil component for a plain payload
// with no further behaviour.
func (e *Environment) AddHTTP(host, path string, component *behavior.Program, windows ...simtime.Interval) {
	if len(windows) == 0 {
		windows = []simtime.Interval{simtime.StudyInterval()}
	}
	e.http[httpKey(host, path)] = &httpPath{component: component, windows: windows}
}

// HTTPFetch attempts to download host+path at the instant, returning the
// served component program (possibly nil) and whether the fetch succeeded.
// The host must resolve through the environment DNS unless it is a dotted
// address.
func (e *Environment) HTTPFetch(host, path string, at time.Time) (*behavior.Program, bool) {
	if _, err := netmodel.ParseIP(host); err != nil {
		if _, ok := e.ResolveDNS(host, at); !ok {
			return nil, false
		}
	}
	p, ok := e.http[httpKey(host, path)]
	if !ok || !inWindows(p.windows, at) {
		return nil, false
	}
	return p.component, true
}
