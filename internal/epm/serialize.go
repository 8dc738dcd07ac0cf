package epm

import (
	"encoding/json"
	"io"
	"sort"
)

// clusteringJSON is the wire form of a Clustering.
type clusteringJSON struct {
	Schema     Schema        `json:"schema"`
	Thresholds Thresholds    `json:"thresholds"`
	Stats      []FeatureStat `json:"stats"`
	Invariants [][]string    `json:"invariants"`
	Clusters   []Cluster     `json:"clusters"`
}

// WriteJSON serializes the clustering, including discovered invariants and
// full cluster membership.
func (c *Clustering) WriteJSON(w io.Writer) error {
	out := clusteringJSON{
		Schema:     c.Schema,
		Thresholds: c.Thresholds,
		Stats:      c.Stats,
		Clusters:   c.Clusters,
		Invariants: make([][]string, len(c.invariants)),
	}
	for i, inv := range c.invariants {
		vals := make([]string, 0, len(inv))
		for v := range inv {
			vals = append(vals, v)
		}
		sort.Strings(vals)
		out.Invariants[i] = vals
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
