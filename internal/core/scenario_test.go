package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

func TestScenarioRoundTrip(t *testing.T) {
	s := SmallScenario()
	s.Seed = 12345
	s.Landscape.WormVariants = 7
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatal(err)
	}
	got, err := LoadScenario(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != 12345 || got.Landscape.WormVariants != 7 {
		t.Errorf("round trip lost values: %+v", got)
	}
	if got.Deployment.Locations != s.Deployment.Locations {
		t.Error("deployment lost")
	}
}

func TestLoadScenarioPartialOverride(t *testing.T) {
	// Overriding one knob keeps defaults elsewhere.
	in := `{"Seed": 99, "Landscape": {"WormVariants": 20, "WormPopMin": 5, "WormPopMax": 40, "WormHitRate": 0.01, "WormFragility": 0.1, "PerSourcePopulation": 9, "BotFamilies": 1, "BotMaxVariants": 2, "DropperFamilies": 1, "RareFamilies": 1}}`
	got, err := LoadScenario(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != 99 || got.Landscape.WormVariants != 20 {
		t.Errorf("overrides lost: %+v", got)
	}
	def := DefaultScenario()
	if got.Deployment.Locations != def.Deployment.Locations {
		t.Error("deployment default lost")
	}
	if got.Thresholds != def.Thresholds {
		t.Error("thresholds default lost")
	}
}

func TestLoadScenarioRejects(t *testing.T) {
	cases := map[string]string{
		"garbage":       "{nope",
		"unknown field": `{"Bogus": 1}`,
		"invalid value": `{"Landscape": {"WormVariants": 0}}`,
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := LoadScenario(strings.NewReader(in)); err == nil {
				t.Error("LoadScenario accepted bad input")
			}
		})
	}
}

// TestLoadScenarioRejectsRemovedBClusterKeys pins that a scenario file
// still setting a knob of the retired MinHash/LSH clusterer fails to load
// with an error naming the key, instead of being silently ignored.
func TestLoadScenarioRejectsRemovedBClusterKeys(t *testing.T) {
	for _, key := range []string{"NumHashes", "Bands", "Seed", "Workers"} {
		in := fmt.Sprintf(`{"Enrichment": {"BCluster": {"Threshold": 0.7, %q: 1}}}`, key)
		_, err := LoadScenario(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("BCluster.%s: LoadScenario error %v, want one naming the key", key, err)
		}
	}
}

func TestLoadScenarioFile(t *testing.T) {
	if _, err := LoadScenarioFile("/nonexistent/scenario.json"); err == nil {
		t.Error("missing file must error")
	}
}

func TestValidateScenario(t *testing.T) {
	if err := ValidateScenario(DefaultScenario()); err != nil {
		t.Error(err)
	}
	bad := DefaultScenario()
	bad.Deployment.Locations = 0
	if err := ValidateScenario(bad); err == nil {
		t.Error("invalid deployment must fail")
	}
	bad = DefaultScenario()
	bad.Thresholds.MinSensors = 0
	if err := ValidateScenario(bad); err == nil {
		t.Error("invalid thresholds must fail")
	}
	bad = DefaultScenario()
	bad.Enrichment.BCluster.Threshold = 0
	if err := ValidateScenario(bad); err == nil {
		t.Error("invalid bcluster config must fail")
	}
}

func TestSaveScenarioToFileAndLoad(t *testing.T) {
	path := t.TempDir() + "/scenario.json"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	s := SmallScenario()
	s.Seed = 321
	if err := json.NewEncoder(f).Encode(s); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := LoadScenarioFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != 321 {
		t.Errorf("Seed = %d", got.Seed)
	}
}
