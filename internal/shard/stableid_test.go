package shard_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/epm"
	"repro/internal/replica"
	"repro/internal/shard"
	"repro/internal/stream"
)

// idSource is what a deployment serves of its cluster IDs: the EPM views
// and the per-sample μ-clusters.
type idSource interface {
	EPMClusters(dim string) (stream.EPMView, error)
	Sample(md5 string) (stream.SampleView, bool)
}

// servedIDs is what one deployment serves after its final flush.
type servedIDs struct {
	ids map[string]int64   // dimension "/" pattern key -> stable ID
	m   map[string][]int64 // sample MD5 -> μ-cluster IDs
}

// TestStableIDsAcrossDeployments replays the SmallScenario in 97-event
// batches through every deployment shape — shards {1, 4} × EpochSize
// {8, 64, all} × queried after every batch or once × uninterrupted or
// durable, closed and reopened from its directory halfway and again
// after the flush — and through a follower of the polled, durable
// 4-shard primary. After the final flush each shape must serve every
// (dimension, pattern) under the stable ID stream.ClusterIDs gives it,
// and every sample with the same μ-cluster IDs.
func TestStableIDsAcrossDeployments(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the SmallScenario")
	}
	sc := core.SmallScenario()
	_, sim, _, err := core.Prepare(sc)
	if err != nil {
		t.Fatal(err)
	}
	events := sim.Dataset.Events()
	var md5s []string
	for _, s := range sim.Dataset.Samples() {
		md5s = append(md5s, s.MD5)
	}
	dims := []string{"epsilon", "pi", "mu"}
	ctx := context.Background()
	const batch = 97
	half := len(events) / batch / 2 * batch

	observe := func(t *testing.T, src idSource) servedIDs {
		t.Helper()
		got := servedIDs{ids: map[string]int64{}, m: map[string][]int64{}}
		for _, dim := range dims {
			v, err := src.EPMClusters(dim)
			if err != nil {
				t.Fatal(err)
			}
			for _, cl := range v.Clusters {
				got.ids[dim+"/"+epm.Pattern{Values: cl.Pattern}.Key()] = cl.StableID
			}
		}
		for _, md5 := range md5s {
			sv, ok := src.Sample(md5)
			if !ok {
				t.Fatalf("sample %s is not served", md5)
			}
			got.m[md5] = sv.MClusters
		}
		return got
	}
	var ref servedIDs
	var refLabel string
	compare := func(t *testing.T, label string, got servedIDs) {
		t.Helper()
		if ref.ids == nil {
			ref, refLabel = got, label
			return
		}
		differ := 0
		for key, id := range ref.ids {
			if got.ids[key] != id {
				differ++
			}
		}
		if differ > 0 || len(got.ids) != len(ref.ids) {
			t.Errorf("%s: %d of %d stable IDs differ from %s (%d patterns served)", label, differ, len(ref.ids), refLabel, len(got.ids))
		}
		if !reflect.DeepEqual(got.m, ref.m) {
			t.Errorf("%s: samples' μ-cluster IDs differ from %s", label, refLabel)
		}
	}

	// follow bootstraps a follower of primary c and compares what it serves.
	follow := func(t *testing.T, label string, c *shard.Coordinator, scfg stream.Config) {
		t.Helper()
		var sources []replica.Source
		for i := 0; i < c.Shards(); i++ {
			dir, log := c.Shard(i).ReplicationSource()
			sources = append(sources, replica.Source{Dir: dir, Log: log})
		}
		pub, err := replica.NewPublisher(sources)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(pub.Handler())
		defer srv.Close()
		f, err := replica.NewFollower(replica.FollowerConfig{Primary: srv.URL, Stream: scfg, Enricher: fakeEnricher{}})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := f.Bootstrap(ctx); err != nil {
			t.Fatal(err)
		}
		compare(t, label, observe(t, f))
	}
	// check compares what coordinator c serves with the reference and
	// with what stream.ClusterIDs gives its clusterings.
	check := func(t *testing.T, label string, c *shard.Coordinator) {
		t.Helper()
		got := observe(t, c)
		for _, dim := range dims {
			cl, err := c.EPMClustering(dim)
			if err != nil {
				t.Fatal(err)
			}
			ids, err := stream.ClusterIDs(cl)
			if err != nil {
				t.Fatal(err)
			}
			for i := range cl.Clusters {
				if key := dim + "/" + cl.Clusters[i].Pattern.Key(); got.ids[key] != ids[i] {
					t.Errorf("%s: %s served with stable ID %d, ClusterIDs gives %d", label, key, got.ids[key], ids[i])
				}
			}
		}
		compare(t, label, got)
	}

	for _, shards := range []int{1, 4} {
		for _, epochSize := range []int{8, 64, 0} {
			for _, polled := range []bool{false, true} {
				for _, reopened := range []bool{false, true} {
					label := fmt.Sprintf("shards=%d epoch=%d polled=%t reopened=%t", shards, epochSize, polled, reopened)
					scfg := stream.Config{EpochSize: epochSize, Thresholds: sc.Thresholds, BCluster: sc.Enrichment.BCluster}
					if reopened {
						scfg.Durability = stream.Durability{Dir: t.TempDir(), NoSync: true, CheckpointEvery: 4}
					}
					cfg := shard.Config{Shards: shards, Stream: scfg}
					c := newCoordinator(t, cfg)
					for lo := 0; lo < len(events); lo += batch {
						if reopened && lo == half {
							c.Close()
							c = newCoordinator(t, cfg)
						}
						if err := c.Ingest(ctx, events[lo:min(lo+batch, len(events))]); err != nil {
							t.Fatal(err)
						}
						if !polled {
							continue
						}
						if err := c.Sync(ctx); err != nil {
							t.Fatal(err)
						}
						for _, dim := range dims {
							if _, err := c.EPMClusters(dim); err != nil {
								t.Fatal(err)
							}
						}
					}
					if err := c.Flush(ctx); err != nil {
						t.Fatal(err)
					}
					check(t, label, c)
					if reopened {
						if shards == 4 && epochSize == 64 && polled {
							follow(t, "follower of "+label, c, scfg)
						}
						// The restarted coordinator has served no query
						// yet, so an ID that hung on the query history
						// would move here.
						c.Close()
						c = newCoordinator(t, cfg)
						check(t, label+", reopened after the flush", c)
					}
					c.Close()
				}
			}
		}
	}
	placed := 0
	for _, ids := range ref.m {
		if len(ids) > 0 {
			placed++
		}
	}
	t.Logf("%d events: %d patterns, %d of %d samples in a μ-cluster", len(events), len(ref.ids), placed, len(ref.m))
	if placed == 0 {
		t.Fatal("no sample is in a μ-cluster")
	}
}
