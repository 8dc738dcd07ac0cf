package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// LoadScenario reads a scenario from JSON, applying defaults for absent
// sections so a file may override only the knobs it cares about.
func LoadScenario(r io.Reader) (Scenario, error) {
	s := DefaultScenario()
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, fmt.Errorf("core: decoding scenario: %w", err)
	}
	if err := ValidateScenario(s); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// LoadScenarioFile reads a scenario from a JSON file.
func LoadScenarioFile(path string) (Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("core: opening scenario: %w", err)
	}
	defer f.Close()
	return LoadScenario(f)
}

// ValidateScenario runs every component validation without executing the
// pipeline.
func ValidateScenario(s Scenario) error {
	if err := s.Landscape.Validate(); err != nil {
		return err
	}
	if err := s.Deployment.Validate(); err != nil {
		return err
	}
	if err := s.Enrichment.BCluster.Validate(); err != nil {
		return err
	}
	return s.Thresholds.Validate()
}
