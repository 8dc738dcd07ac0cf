package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"

	"repro/internal/bcluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/epm"
	"repro/internal/stream"
)

// views is what the correctness gate compares: for each of E, P and M
// the multiset of (pattern, size), for B the multiset of
// (representative, size), each as sorted "key size" strings.
type views [4][]string

var viewDims = [4]string{"e", "p", "m", "b"}

// fetchViews reads the daemon's four cluster views.
func fetchViews(ctx context.Context, c *conn) (views, error) {
	var v views
	for d, name := range viewDims {
		raw, err := c.op(ctx, http.MethodGet, "/v1/clusters/"+name, nil)
		if err != nil {
			return v, err
		}
		if name == "b" {
			var bv stream.BView
			if err := json.Unmarshal(raw, &bv); err != nil {
				return v, fmt.Errorf("decoding B view: %w", err)
			}
			for _, cl := range bv.Clusters {
				v[d] = append(v[d], fmt.Sprintf("%s %d", cl.Representative, cl.Size))
			}
		} else {
			var ev stream.EPMView
			if err := json.Unmarshal(raw, &ev); err != nil {
				return v, fmt.Errorf("decoding %s view: %w", name, err)
			}
			for _, cl := range ev.Clusters {
				v[d] = append(v[d], fmt.Sprintf("%s %d", strings.Join(cl.Pattern, "|"), cl.Size))
			}
		}
		sort.Strings(v[d])
	}
	return v, nil
}

// referenceViews runs the batch pipeline over the admitted events.
func referenceViews(events []dataset.Event, enricher core.Enricher, th epm.Thresholds, bcfg bcluster.Config) (views, error) {
	var v views
	res, err := core.RunEvents(events, enricher, th, bcfg, 0)
	if err != nil {
		return v, err
	}
	for d, c := range []*epm.Clustering{res.E, res.P, res.M} {
		for _, cl := range c.Clusters {
			v[d] = append(v[d], fmt.Sprintf("%s %d", strings.Join(cl.Pattern.Values, "|"), cl.Size()))
		}
		sort.Strings(v[d])
	}
	for _, cl := range res.B.Clusters {
		v[3] = append(v[3], fmt.Sprintf("%s %d", cl.Members[0], cl.Size()))
	}
	sort.Strings(v[3])
	return v, nil
}

// diff names the first dimension where got and want differ.
func (got views) diff(want views) error {
	for d := range got {
		g, w := got[d], want[d]
		if len(g) != len(w) {
			return fmt.Errorf("%s view has %d clusters, the batch pipeline %d", viewDims[d], len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				return fmt.Errorf("%s view differs from the batch pipeline: %q vs %q", viewDims[d], g[i], w[i])
			}
		}
	}
	return nil
}
