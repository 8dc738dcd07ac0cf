package netmodel

import (
	"testing"
	"testing/quick"

	"repro/internal/simrng"
)

func TestIPString(t *testing.T) {
	tests := []struct {
		ip   IP
		want string
	}{
		{0, "0.0.0.0"},
		{0xffffffff, "255.255.255.255"},
		{0x43002a01, "67.0.42.1"},
		{MustParseIP("67.43.232.36"), "67.43.232.36"},
	}
	for _, tt := range tests {
		if got := tt.ip.String(); got != tt.want {
			t.Errorf("IP(%#x).String() = %q, want %q", uint32(tt.ip), got, tt.want)
		}
	}
}

func TestParseIPRoundTrip(t *testing.T) {
	f := func(raw uint32) bool {
		ip := IP(raw)
		back, err := ParseIP(ip.String())
		return err == nil && back == ip
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseIPErrors(t *testing.T) {
	bad := []string{"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "-1.2.3.4", "a.b.c.d", "01.2.3.4", "1..2.3"}
	for _, s := range bad {
		if _, err := ParseIP(s); err == nil {
			t.Errorf("ParseIP(%q) succeeded, want error", s)
		}
	}
}

func TestPrefixContains(t *testing.T) {
	p := Prefix{Base: MustParseIP("67.43.232.0"), Bits: 24}
	if !p.Contains(MustParseIP("67.43.232.36")) {
		t.Error("prefix must contain member address")
	}
	if p.Contains(MustParseIP("67.43.233.1")) {
		t.Error("prefix must not contain outside address")
	}
	all := Prefix{Base: 0, Bits: 0}
	if !all.Contains(MustParseIP("8.8.8.8")) {
		t.Error("/0 must contain everything")
	}
}

func TestPrefixRandomStaysInside(t *testing.T) {
	r := simrng.New(1).Stream("prefix")
	p := Prefix{Base: MustParseIP("10.20.0.0"), Bits: 16}
	for i := 0; i < 500; i++ {
		ip := p.Random(r)
		if !p.Contains(ip) {
			t.Fatalf("Random produced %s outside %s", ip, p)
		}
	}
}

func TestSlash24(t *testing.T) {
	ip := MustParseIP("67.43.232.36")
	got := ip.Slash24()
	if got.String() != "67.43.232.0/24" {
		t.Errorf("Slash24 = %s", got)
	}
	if !got.Contains(ip) {
		t.Error("Slash24 must contain its address")
	}
}

func TestNewDeploymentLayout(t *testing.T) {
	r := simrng.New(7).Stream("deploy")
	d, err := NewDeployment(r, 30, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(d.Locations()); got != 30 {
		t.Fatalf("locations = %d, want 30", got)
	}
	if got := len(d.Sensors()); got != 150 {
		t.Fatalf("sensors = %d, want 150", got)
	}
	// No two locations may share a /16, and each sensor must resolve to its
	// own location.
	seen := map[IP]bool{}
	for i, loc := range d.Locations() {
		if seen[loc.Prefix.Base] {
			t.Fatalf("duplicate location prefix %s", loc.Prefix)
		}
		seen[loc.Prefix.Base] = true
		for _, s := range loc.Sensors {
			if !loc.Prefix.Contains(s) {
				t.Fatalf("sensor %s outside location prefix %s", s, loc.Prefix)
			}
			if got := d.LocationOf(s); got != i {
				t.Fatalf("LocationOf(%s) = %d, want %d", s, got, i)
			}
		}
	}
	if got := d.LocationOf(MustParseIP("192.0.2.1")); got != -1 {
		// Astronomically unlikely to be a sensor; treat as non-sensor probe.
		t.Skipf("random collision with sensor space (got %d)", got)
	}
}

func TestNewDeploymentRejectsBadSizes(t *testing.T) {
	r := simrng.New(7).Stream("deploy-bad")
	if _, err := NewDeployment(r, 0, 5); err == nil {
		t.Error("zero locations must error")
	}
	if _, err := NewDeployment(r, 5, 0); err == nil {
		t.Error("zero sensors must error")
	}
}

func TestDeploymentDeterminism(t *testing.T) {
	d1, err := NewDeployment(simrng.New(9).Stream("d"), 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := NewDeployment(simrng.New(9).Stream("d"), 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := d1.Sensors(), d2.Sensors()
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("deployments diverged at sensor %d: %s != %s", i, s1[i], s2[i])
		}
	}
}

func TestWidespreadPopulationSpread(t *testing.T) {
	r := simrng.New(3).Stream("pop")
	p := NewPopulation(r, 400, Widespread, 0)
	if len(p.Hosts) != 400 {
		t.Fatalf("hosts = %d", len(p.Hosts))
	}
	if spread := p.Slash24Spread(); spread < 350 {
		t.Errorf("widespread population occupies only %d /24s", spread)
	}
}

func TestLocalizedPopulationSpread(t *testing.T) {
	r := simrng.New(3).Stream("pop-local")
	p := NewPopulation(r, 400, Localized, 4)
	if len(p.Hosts) != 400 {
		t.Fatalf("hosts = %d", len(p.Hosts))
	}
	if spread := p.Slash24Spread(); spread > 4 {
		t.Errorf("localized population occupies %d /24s, want <= 4", spread)
	}
}

func TestLocalizedPopulationDefaultsToOneNet(t *testing.T) {
	r := simrng.New(3).Stream("pop-one")
	p := NewPopulation(r, 50, Localized, 0)
	if spread := p.Slash24Spread(); spread != 1 {
		t.Errorf("spread = %d, want 1 when maxNets defaulted", spread)
	}
}

func TestIPSpaceHistogram(t *testing.T) {
	ips := []IP{0, 1 << 30, 2 << 30, 3 << 30}
	hist := IPSpaceHistogram(ips, 4)
	for i, c := range hist {
		if c != 1 {
			t.Errorf("bucket %d = %d, want 1 (hist %v)", i, c, hist)
		}
	}
	if got := len(IPSpaceHistogram(nil, 0)); got != 16 {
		t.Errorf("default buckets = %d, want 16", got)
	}
}

func TestDistributionString(t *testing.T) {
	if Widespread.String() != "widespread" || Localized.String() != "localized" {
		t.Error("Distribution.String mismatch")
	}
	if Distribution(99).String() == "" {
		t.Error("unknown distribution must still render")
	}
}
