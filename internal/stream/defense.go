package stream

// Poisoning defenses and the per-client provenance ledger. The service
// attributes every sample to the ingest client that first delivered it,
// derives a distrust weight from the defense decisions the clusterer
// makes against that client's samples, and feeds both the weight and
// the sample's static μ-group into the defended B-clusterer. All of it
// is inert — no ledger, no extra checkpoint fields, the original
// clustering code path — until a defense knob of Config.BCluster or
// StatsClients is set.

import (
	"sort"
	"strings"

	"repro/internal/bcluster"
	"repro/internal/behavior"
	"repro/internal/dataset"
)

// defended reports whether the B-clusterer runs with defenses on.
func (s *Service) defended() bool {
	return s.cfg.BCluster.Defended()
}

// trackClients reports whether the per-client ledger is maintained:
// needed by the trust penalty (defended mode) and by the -stats-clients
// surface.
func (s *Service) trackClients() bool {
	return s.defended() || s.cfg.StatsClients
}

// clientLedger is one client's provenance record. The JSON shape is the
// checkpoint encoding; suspicion is the defense-decision count the
// distrust weight derives from.
type clientLedger struct {
	Events    int `json:"events"`
	Samples   int `json:"samples"`
	Held      int `json:"held,omitempty"`
	Parked    int `json:"parked,omitempty"`
	Suspicion int `json:"suspicion,omitempty"`
}

// distrust maps the suspicion count into [0,1): 0 while clean, 1/3
// after the first defense decision, asymptotically 1. The trusted
// loopback identity ("") never accrues suspicion, so in-process replay
// and recovery keep full trust.
func (l *clientLedger) distrust() float64 {
	return float64(l.Suspicion) / float64(l.Suspicion+2)
}

// ledger returns (minting if needed) a client's ledger. Callers hold
// the write lock.
func (s *Service) ledger(client string) *clientLedger {
	l := s.clients[client]
	if l == nil {
		l = &clientLedger{}
		s.clients[client] = l
	}
	return l
}

// noteSampleOrigin records a first-seen sample's provenance. Callers
// hold the write lock.
func (s *Service) noteSampleOrigin(client, md5 string) {
	if !s.trackClients() {
		return
	}
	if _, seen := s.sampleClient[md5]; seen {
		return
	}
	s.sampleClient[md5] = client
	s.ledger(client).Samples++
}

// sampleGroup derives a sample's static group from its μ-instance: the
// values joined into one key, minus the leading MD5 — that value is
// unique per sample, while the rest (file size, libmagic type, PE
// header shape, imports) is exactly what the polymorphic engines leave
// invariant, so every sample minted from one variant's template shares
// a group. The sample's features are those of the event that introduced
// it, so the group is a function of the sample alone.
func sampleGroup(smp *dataset.Sample) string {
	in, _ := dataset.Event{Sample: smp.Features}.MuInstance()
	return strings.Join(in.Values[1:], "\x1f")
}

// bInput is a sample's B-clusterer input, decorated when defended with
// the sample's group and its client's current distrust. The distrust is
// frozen at Add time — it is persisted with the input, which is what
// keeps the defended partition exactly recoverable from a checkpoint.
func (s *Service) bInput(smp *dataset.Sample, profile *behavior.Profile) bcluster.Input {
	in := bcluster.Input{ID: smp.MD5, Profile: profile}
	if !s.defended() {
		return in
	}
	in.Group = sampleGroup(smp)
	if client, ok := s.sampleClient[in.ID]; ok && client != "" {
		if l := s.clients[client]; l != nil {
			in.Distrust = l.distrust()
		}
	}
	return in
}

// harvestDefense drains the clusterer's hold/park decisions into the
// provenance ledger: each decision raises the suspicion — and therefore
// the distrust weight — of the client that delivered the sample. The
// trusted loopback identity is exempt. Callers hold the write lock;
// a no-op when defenses are off.
func (s *Service) harvestDefense() {
	for _, ev := range s.b.TakeDefenseEvents() {
		client, ok := s.sampleClient[ev.ID]
		if !ok {
			continue
		}
		l := s.ledger(client)
		switch ev.Status {
		case bcluster.StatusHeld:
			l.Held++
		case bcluster.StatusParked:
			l.Parked++
		}
		if client != "" {
			l.Suspicion++
		}
	}
}

// ClientStat is one client's slice of the admission and provenance
// ledger, surfaced in Stats when StatsClients is on.
type ClientStat struct {
	// Client is the ingest identity; "" is the trusted loopback.
	Client string `json:"client"`
	// Events and Samples count applied events and first-seen samples
	// attributed to the client.
	Events  int `json:"events"`
	Samples int `json:"samples"`
	// RejectedBatches counts the client's admission refusals.
	RejectedBatches int `json:"rejected_batches,omitempty"`
	// Held and Parked count defense decisions against the client's
	// samples; Suspicion is their trust-relevant total and Distrust the
	// derived weight in [0,1).
	Held      int     `json:"held,omitempty"`
	Parked    int     `json:"parked,omitempty"`
	Suspicion int     `json:"suspicion,omitempty"`
	Distrust  float64 `json:"distrust,omitempty"`
}

// clientStats snapshots the per-client ledger, sorted by client name.
// Callers hold at least the read lock; the rejection counts take admMu.
func (s *Service) clientStats() []ClientStat {
	if !s.cfg.StatsClients || len(s.clients) == 0 {
		return nil
	}
	out := make([]ClientStat, 0, len(s.clients))
	for name, l := range s.clients {
		out = append(out, ClientStat{
			Client:    name,
			Events:    l.Events,
			Samples:   l.Samples,
			Held:      l.Held,
			Parked:    l.Parked,
			Suspicion: l.Suspicion,
			Distrust:  l.distrust(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Client < out[j].Client })
	s.admMu.Lock()
	for i := range out {
		out[i].RejectedBatches = s.rejectedByClient[out[i].Client]
	}
	s.admMu.Unlock()
	return out
}

// MergeClientStats folds per-shard client ledgers into one deployment
// view, summing by client name. The distrust of a client seen on
// several shards is the maximum — trust is a property of the client,
// and any shard's evidence counts against it.
func MergeClientStats(parts ...[]ClientStat) []ClientStat {
	byName := make(map[string]*ClientStat)
	for _, part := range parts {
		for _, cs := range part {
			agg := byName[cs.Client]
			if agg == nil {
				c := cs
				byName[cs.Client] = &c
				continue
			}
			agg.Events += cs.Events
			agg.Samples += cs.Samples
			agg.RejectedBatches += cs.RejectedBatches
			agg.Held += cs.Held
			agg.Parked += cs.Parked
			agg.Suspicion += cs.Suspicion
			if cs.Distrust > agg.Distrust {
				agg.Distrust = cs.Distrust
			}
		}
	}
	if len(byName) == 0 {
		return nil
	}
	out := make([]ClientStat, 0, len(byName))
	for _, cs := range byName {
		out = append(out, *cs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Client < out[j].Client })
	return out
}
