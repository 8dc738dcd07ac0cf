// Package netmodel models the slice of the IPv4 Internet the simulation
// needs: addresses, prefixes, the honeypot deployment layout, and infected
// host populations with their spatial distribution.
//
// The paper's SGNET deployment monitored 150 IP addresses across 30
// distinct network locations. The analyses only ever consume (attacker IP,
// honeypot IP) pairs, so the model generates attacker populations directly
// instead of simulating full Internet routing.
package netmodel

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// IP is an IPv4 address in host byte order.
type IP uint32

// String renders the address in dotted-quad form.
func (ip IP) String() string {
	var b strings.Builder
	b.Grow(15)
	for shift := 24; shift >= 0; shift -= 8 {
		if shift != 24 {
			b.WriteByte('.')
		}
		b.WriteString(strconv.Itoa(int(ip >> shift & 0xff)))
	}
	return b.String()
}

// Slash24 returns the /24 prefix containing the address.
func (ip IP) Slash24() Prefix {
	return Prefix{Base: ip &^ 0xff, Bits: 24}
}

// ParseIP parses a dotted-quad IPv4 address.
func ParseIP(s string) (IP, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("netmodel: invalid IPv4 address %q", s)
	}
	var ip IP
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 || (len(p) > 1 && p[0] == '0') {
			return 0, fmt.Errorf("netmodel: invalid IPv4 octet %q in %q", p, s)
		}
		ip = ip<<8 | IP(v)
	}
	return ip, nil
}

// MustParseIP is ParseIP for compile-time-known literals; it panics on
// malformed input.
func MustParseIP(s string) IP {
	ip, err := ParseIP(s)
	if err != nil {
		panic(err)
	}
	return ip
}

// Prefix is a CIDR prefix.
type Prefix struct {
	Base IP  // network address (low bits zero)
	Bits int // prefix length, 0..32
}

func (p Prefix) mask(ip IP) IP {
	if p.Bits <= 0 {
		return 0
	}
	return ip &^ (1<<(32-p.Bits) - 1)
}

// Contains reports whether ip belongs to the prefix.
func (p Prefix) Contains(ip IP) bool {
	return p.mask(ip) == p.Base
}

// Size returns the number of addresses covered by the prefix.
func (p Prefix) Size() uint64 {
	return 1 << (32 - p.Bits)
}

// Random returns a uniformly random address inside the prefix. Network and
// broadcast addresses are not excluded; the simulation does not care.
func (p Prefix) Random(r *rand.Rand) IP {
	return p.Base | IP(r.Uint64()&uint64(p.Size()-1))
}

// String renders the prefix in CIDR notation.
func (p Prefix) String() string {
	return fmt.Sprintf("%s/%d", p.Base, p.Bits)
}

// Deployment describes the honeypot deployment: a set of network
// locations, each contributing a handful of monitored sensor addresses.
type Deployment struct {
	locations []Location
	sensors   []IP
	byIP      map[IP]int // sensor IP -> location index
}

// Location is one monitored network location.
type Location struct {
	Name    string
	Prefix  Prefix
	Sensors []IP
}

// NewDeployment builds a deployment with the given number of locations and
// sensors per location, drawing the location prefixes pseudo-randomly from
// distinct /16 blocks so no two locations share address space.
func NewDeployment(r *rand.Rand, locations, sensorsPerLocation int) (*Deployment, error) {
	if locations <= 0 || sensorsPerLocation <= 0 {
		return nil, fmt.Errorf("netmodel: deployment needs positive sizes, got %d locations x %d sensors", locations, sensorsPerLocation)
	}
	d := &Deployment{
		locations: make([]Location, 0, locations),
		sensors:   make([]IP, 0, locations*sensorsPerLocation),
		byIP:      make(map[IP]int, locations*sensorsPerLocation),
	}
	used := make(map[IP]bool, locations)
	for i := 0; i < locations; i++ {
		var base IP
		for {
			// Stay within globally-routable-looking space (avoid 0/8, 10/8,
			// 127/8, 224/3) purely for cosmetic realism.
			hi := IP(r.Intn(220-1) + 1)
			if hi == 10 || hi == 127 {
				continue
			}
			base = hi<<24 | IP(r.Intn(256))<<16
			if !used[base] {
				used[base] = true
				break
			}
		}
		loc := Location{
			Name:   fmt.Sprintf("loc-%02d", i),
			Prefix: Prefix{Base: base, Bits: 16},
		}
		seen := make(map[IP]bool, sensorsPerLocation)
		for len(loc.Sensors) < sensorsPerLocation {
			ip := loc.Prefix.Random(r)
			if seen[ip] {
				continue
			}
			seen[ip] = true
			loc.Sensors = append(loc.Sensors, ip)
			d.sensors = append(d.sensors, ip)
			d.byIP[ip] = i
		}
		sort.Slice(loc.Sensors, func(a, b int) bool { return loc.Sensors[a] < loc.Sensors[b] })
		d.locations = append(d.locations, loc)
	}
	sort.Slice(d.sensors, func(a, b int) bool { return d.sensors[a] < d.sensors[b] })
	return d, nil
}

// Locations returns the deployment's network locations.
func (d *Deployment) Locations() []Location {
	return d.locations
}

// Sensors returns every monitored sensor address, sorted.
func (d *Deployment) Sensors() []IP {
	return d.sensors
}

// LocationOf returns the location index hosting the sensor, or -1 when the
// address is not a sensor.
func (d *Deployment) LocationOf(sensor IP) int {
	if i, ok := d.byIP[sensor]; ok {
		return i
	}
	return -1
}

// Distribution describes how an infected population spreads over the IP
// space.
type Distribution int

// Population spatial distributions observed in the paper: worms infect
// hosts widespread over most of the IP space, while bot populations
// concentrate in a few specific networks (Figure 5).
const (
	// Widespread scatters hosts uniformly over routable space.
	Widespread Distribution = iota
	// Localized concentrates hosts in a small number of /24 networks.
	Localized
)

// String implements fmt.Stringer.
func (d Distribution) String() string {
	switch d {
	case Widespread:
		return "widespread"
	case Localized:
		return "localized"
	default:
		return fmt.Sprintf("Distribution(%d)", int(d))
	}
}

// Population is a set of infected hosts sharing one malware variant.
type Population struct {
	Hosts        []IP
	Distribution Distribution
}

// NewPopulation samples a population of the given size. For Localized
// populations the hosts are drawn from at most maxNets distinct /24s;
// widespread populations ignore maxNets.
func NewPopulation(r *rand.Rand, size int, dist Distribution, maxNets int) Population {
	p := Population{
		Hosts:        make([]IP, 0, size),
		Distribution: dist,
	}
	switch dist {
	case Localized:
		if maxNets <= 0 {
			maxNets = 1
		}
		nets := make([]Prefix, maxNets)
		for i := range nets {
			nets[i] = randomSlash24(r)
		}
		for len(p.Hosts) < size {
			p.Hosts = append(p.Hosts, nets[r.Intn(len(nets))].Random(r))
		}
	default:
		seen := make(map[IP]bool, size)
		for len(p.Hosts) < size {
			ip := randomRoutable(r)
			if seen[ip] {
				continue
			}
			seen[ip] = true
			p.Hosts = append(p.Hosts, ip)
		}
	}
	sort.Slice(p.Hosts, func(a, b int) bool { return p.Hosts[a] < p.Hosts[b] })
	return p
}

// Slash24Spread reports how many distinct /24 networks the population
// occupies. Low values relative to the population size indicate a
// localized, bot-like population.
func (p Population) Slash24Spread() int {
	nets := make(map[IP]bool, len(p.Hosts))
	for _, h := range p.Hosts {
		nets[h.Slash24().Base] = true
	}
	return len(nets)
}

// RandomHost returns a uniformly random member of the population.
func (p Population) RandomHost(r *rand.Rand) IP {
	return p.Hosts[r.Intn(len(p.Hosts))]
}

// randomRoutable samples an address avoiding the conspicuously
// non-routable /8s so that rendered addresses look plausible.
func randomRoutable(r *rand.Rand) IP {
	for {
		ip := IP(r.Uint32())
		hi := ip >> 24
		if hi == 0 || hi == 10 || hi == 127 || hi >= 224 {
			continue
		}
		return ip
	}
}

// randomSlash24 samples a random routable /24 prefix.
func randomSlash24(r *rand.Rand) Prefix {
	return randomRoutable(r).Slash24()
}

// IPSpaceHistogram buckets addresses by their high octet, giving the
// coarse "distribution over the IP space" view used in Figure 5.
func IPSpaceHistogram(ips []IP, buckets int) []int {
	if buckets <= 0 {
		buckets = 16
	}
	hist := make([]int, buckets)
	for _, ip := range ips {
		hist[int(uint64(ip)*uint64(buckets)>>32)]++
	}
	return hist
}
