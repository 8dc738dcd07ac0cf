package stream_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/behavior"
	"repro/internal/dataset"
	"repro/internal/epm"
	"repro/internal/pe"
	"repro/internal/stream"
)

// fakeEnricher labels every sample and returns one synthetic feature per
// truth variant, so samples of the same variant cluster together.
type fakeEnricher struct{}

func (fakeEnricher) LabelSample(s *dataset.Sample) error {
	s.AVLabel = "Fake." + s.TruthVariant
	return nil
}

func (fakeEnricher) ExecuteSample(s *dataset.Sample) (*behavior.Profile, bool, error) {
	p := behavior.NewProfile()
	for k := 0; k < 10; k++ {
		p.Add(fmt.Sprintf("%s-beh%d", s.TruthVariant, k))
	}
	return p, false, nil
}

// testEvent builds a well-formed event; variant "" omits the sample.
func testEvent(i int, variant string) dataset.Event {
	e := dataset.Event{
		ID:          fmt.Sprintf("ev%04d", i),
		Time:        time.Date(2008, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Minute),
		Attacker:    fmt.Sprintf("10.0.%d.%d", i%5, i%13),
		Sensor:      fmt.Sprintf("s%d", i%7),
		FSMPath:     fmt.Sprintf("fsm-%d", i%3),
		DestPort:    445,
		Protocol:    "ftp",
		Filename:    "a.exe",
		PayloadPort: 33333,
		Interaction: "push",
	}
	if variant != "" {
		e.Sample = pe.Features{
			MD5:         fmt.Sprintf("md5-%s-%d", variant, i%4),
			IsPE:        true,
			Magic:       pe.MagicPEGUI,
			NumSections: 3,
		}
		e.DownloadOutcome = "ok"
		e.TruthVariant = variant
	}
	return e
}

func newTestService(t *testing.T, cfg stream.Config) *stream.Service {
	t.Helper()
	svc, err := stream.New(cfg, fakeEnricher{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

func testConfig(epochSize int) stream.Config {
	cfg := stream.DefaultConfig()
	cfg.EpochSize = epochSize
	cfg.QueueDepth = 2
	return cfg
}

func TestServiceIngestAndStats(t *testing.T) {
	svc := newTestService(t, testConfig(8))
	ctx := context.Background()
	var events []dataset.Event
	for i := 0; i < 60; i++ {
		events = append(events, testEvent(i, fmt.Sprintf("v%d", i%3)))
	}
	if err := stream.Replay(ctx, svc, events, 10); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Events != 60 || st.Rejected != 0 || st.Duplicates != 0 {
		t.Fatalf("events=%d rejected=%d duplicates=%d", st.Events, st.Rejected, st.Duplicates)
	}
	if st.Samples != 12 || st.Executed != 12 {
		t.Fatalf("samples=%d executed=%d, want 12 each", st.Samples, st.Executed)
	}
	if st.B.Clusters != 3 || st.B.Pending != 0 {
		t.Fatalf("B clusters=%d pending=%d, want 3 clusters (one per variant)", st.B.Clusters, st.B.Pending)
	}
	if st.Epsilon.Instances != 60 || st.Epsilon.Epoch == 0 {
		t.Fatalf("epsilon instances=%d epoch=%d", st.Epsilon.Instances, st.Epsilon.Epoch)
	}
	if st.Flushes != 1 || st.MaxQueueDepth < 1 {
		t.Fatalf("flushes=%d maxQueueDepth=%d", st.Flushes, st.MaxQueueDepth)
	}

	view, err := svc.EPMClusters("epsilon")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range view.Clusters {
		total += c.Size
	}
	if total+view.Pending != 60 {
		t.Fatalf("epsilon cluster sizes %d + pending %d != 60", total, view.Pending)
	}
	if _, err := svc.EPMClusters("bogus"); err == nil {
		t.Fatal("unknown dimension must error")
	}

	bv := svc.BClusters()
	if len(bv.Clusters) != 3 {
		t.Fatalf("BClusters = %d, want 3", len(bv.Clusters))
	}

	sv, ok := svc.Sample("md5-v0-0")
	if !ok {
		t.Fatal("known sample not found")
	}
	if !sv.Executable || sv.AVLabel != "Fake.v0" || sv.BSize != 4 {
		t.Fatalf("sample view %+v", sv)
	}
	if _, ok := svc.Sample("nope"); ok {
		t.Fatal("unknown sample must report !ok")
	}
}

func TestServiceRejectsAndDuplicates(t *testing.T) {
	svc := newTestService(t, testConfig(0))
	ctx := context.Background()
	good := testEvent(0, "v0")
	bad := testEvent(1, "")
	bad.Attacker = ""
	wild := testEvent(2, "")
	wild.FSMPath = epm.Wildcard
	if err := svc.Ingest(ctx, []dataset.Event{good, bad, wild, good}); err != nil {
		t.Fatal(err)
	}
	if err := svc.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Events != 1 || st.Rejected != 2 || st.Duplicates != 1 {
		t.Fatalf("events=%d rejected=%d duplicates=%d, want 1/2/1", st.Events, st.Rejected, st.Duplicates)
	}
	if len(st.RecentErrors) == 0 {
		t.Fatal("RecentErrors should record the rejections")
	}
	if st.RejectedByReason["missing-source"] != 1 || st.RejectedByReason["reserved-value"] != 1 {
		t.Fatalf("RejectedByReason = %v, want missing-source:1 reserved-value:1", st.RejectedByReason)
	}
}

func TestServiceCloseSemantics(t *testing.T) {
	svc, err := stream.New(testConfig(0), fakeEnricher{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := svc.Ingest(ctx, []dataset.Event{testEvent(0, "v0")}); err != nil {
		t.Fatal(err)
	}
	svc.Close()
	svc.Close() // idempotent
	// Queued work was applied before Close returned.
	if st := svc.Stats(); st.Events != 1 {
		t.Fatalf("events=%d after Close, want 1", st.Events)
	}
	if err := svc.Ingest(ctx, []dataset.Event{testEvent(1, "")}); err != stream.ErrClosed {
		t.Fatalf("Ingest after Close = %v, want ErrClosed", err)
	}
	if err := svc.Flush(ctx); err != stream.ErrClosed {
		t.Fatalf("Flush after Close = %v, want ErrClosed", err)
	}
}

// TestServiceSyncIsABarrierOnly pins Sync's contract: every batch queued
// before it is applied when it returns, but it forces no epoch (unlike
// Flush), so parked work stays parked until an epoch is due.
func TestServiceSyncIsABarrierOnly(t *testing.T) {
	svc := newTestService(t, testConfig(0)) // no automatic epochs
	ctx := context.Background()
	for i := 0; i < 60; i += 10 {
		var batch []dataset.Event
		for k := i; k < i+10; k++ {
			batch = append(batch, testEvent(k, fmt.Sprintf("v%d", k%3)))
		}
		if err := svc.Ingest(ctx, batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Events != 60 || st.Executed != 12 {
		t.Fatalf("after Sync: events=%d executed=%d, want 60/12", st.Events, st.Executed)
	}
	if st.Flushes != 0 || st.Epsilon.Epoch != 0 || st.B.Epochs != 0 || st.B.Pending != 12 {
		t.Fatalf("Sync ran an epoch: flushes=%d epsilon epoch=%d B epochs=%d B pending=%d",
			st.Flushes, st.Epsilon.Epoch, st.B.Epochs, st.B.Pending)
	}
	svc.Close()
	if err := svc.Sync(ctx); err != stream.ErrClosed {
		t.Fatalf("Sync after Close = %v, want ErrClosed", err)
	}
}

func TestServiceIngestContextCancel(t *testing.T) {
	cfg := testConfig(0)
	cfg.QueueDepth = 1
	svc := newTestService(t, cfg)
	// Saturate the queue so the next Ingest must block, then cancel.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	for i := 0; ; i++ {
		err := svc.Ingest(ctx, []dataset.Event{testEvent(i, "")})
		if err == context.DeadlineExceeded {
			return // blocked on a full queue and respected the context
		}
		if err != nil {
			t.Fatal(err)
		}
		if i > 100000 {
			t.Skip("queue never filled; worker faster than producer")
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := stream.DefaultConfig()
	bad.EpochSize = -1
	if _, err := stream.New(bad, fakeEnricher{}); err == nil {
		t.Fatal("negative EpochSize must error")
	}
	if _, err := stream.New(stream.DefaultConfig(), nil); err == nil {
		t.Fatal("nil enricher must error")
	}
}

// dayEnricher profiles a sample by its variant and the day it was first
// seen, so a late event that moves the first sighting back changes the
// profile of a sample still parked, and the service amends it.
type dayEnricher struct{}

func (dayEnricher) LabelSample(s *dataset.Sample) error { return nil }

func (dayEnricher) ExecuteSample(s *dataset.Sample) (*behavior.Profile, bool, error) {
	p := behavior.NewProfile()
	for k := 0; k < 6; k++ {
		p.Add(fmt.Sprintf("%s-beh%d", s.TruthVariant, k))
	}
	p.Add("day-" + s.FirstSeen.Format("20060102"))
	return p, false, nil
}

// TestBResultCacheFollowsEveryMutation drives a defended service and a
// replica through batches, B epochs, an amending late event, a flush
// with its drain, and a snapshot restore, and requires after every step
// that the cached B views equal a freshly assembled partition.
func TestBResultCacheFollowsEveryMutation(t *testing.T) {
	cfg := testConfig(8)
	cfg.BCluster.MergeResistance, cfg.BCluster.GroupQuorum = 3, 3
	check := func(label string, svc *stream.Service) {
		t.Helper()
		fresh := stream.FreshBResult(svc)
		got := svc.BResult()
		if !reflect.DeepEqual(got.Clusters, fresh.Clusters) || got.Stats != fresh.Stats {
			t.Fatalf("%s: BResult serves a stale partition", label)
		}
		if svc.BResult() != got {
			t.Fatalf("%s: an unchanged partition was assembled again", label)
		}
		view := svc.BClusters()
		if len(view.Clusters) != len(fresh.Clusters) {
			t.Fatalf("%s: BClusters has %d clusters, a fresh Result %d", label, len(view.Clusters), len(fresh.Clusters))
		}
		for i, c := range fresh.Clusters {
			if v := view.Clusters[i]; v.ID != c.ID || v.Representative != c.Members[0] || v.Size != c.Size() {
				t.Fatalf("%s: BClusters cluster %d %+v, fresh %+v", label, i, v, c)
			}
		}
		for _, smp := range svc.Dataset().Samples() {
			v, _ := svc.Sample(smp.MD5)
			i := fresh.ClusterOf(smp.MD5)
			if i < 0 {
				if v.BSize != 0 {
					t.Fatalf("%s: sample %s reports B size %d outside the partition", label, smp.MD5, v.BSize)
				}
				continue
			}
			if c := fresh.Clusters[i]; v.BRepresentative != c.Members[0] || v.BSize != c.Size() {
				t.Fatalf("%s: sample %s in cluster (%s, %d), fresh (%s, %d)", label, smp.MD5, v.BRepresentative, v.BSize, c.Members[0], c.Size())
			}
		}
	}
	dir := t.TempDir()
	cfg.Durability = stream.Durability{Dir: dir, NoSync: true}
	svc, err := stream.New(cfg, dayEnricher{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	var events []dataset.Event
	for i := 0; i < 60; i++ {
		e := testEvent(i, fmt.Sprintf("v%d", i%3))
		e.Time = e.Time.Add(time.Duration(i) * 24 * time.Hour)
		e.Sample.MD5 = fmt.Sprintf("md5-%02d", i%30)
		events = append(events, e)
	}
	step := func(label string, err error) {
		t.Helper()
		if err == nil {
			err = svc.Sync(ctx)
		}
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		check(label, svc)
	}
	for lo := 0; lo < 30; lo += 5 {
		step(fmt.Sprintf("batch at %d", lo), svc.Ingest(ctx, events[lo:lo+5]))
	}
	// md5-29 arrived last and is still parked: a sighting a month
	// earlier re-executes it on another day, and the service amends it.
	late := testEvent(1000, "v2")
	late.Sample.MD5, late.Time = "md5-29", events[29].Time.AddDate(0, -1, 0)
	before := svc.Stats()
	step("late event", svc.Ingest(ctx, []dataset.Event{late}))
	if after := svc.Stats(); after.Executed != before.Executed+1 || after.StaleProfiles != 0 || after.B.Samples != before.B.Samples {
		t.Fatalf("the late event did not amend a parked sample: before %+v after %+v", before.B, after.B)
	}
	for lo := 30; lo < 60; lo += 10 {
		step(fmt.Sprintf("batch at %d", lo), svc.Ingest(ctx, events[lo:lo+10]))
	}
	step("flush and drain", svc.Flush(ctx))
	if err := svc.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}

	rep, err := stream.NewReplica(cfg, dayEnricher{})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	check("empty replica", rep)
	f, err := os.Open(filepath.Join(dir, "checkpoint.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := rep.RestoreSnapshot(f); err != nil {
		t.Fatal(err)
	}
	check("restored replica", rep)
	if !reflect.DeepEqual(rep.BClusters(), svc.BClusters()) {
		t.Fatal("the restored replica serves another B view than its primary")
	}
}

// TestClusterIDCollision: two patterns of one dimension whose 53-bit
// stable IDs coincide are a typed error naming the dimension, the ID and
// both keys, and every ID is still computed. The pair was found offline
// by a Brent cycle search over x -> the ID of the 14-digit hex key of x
// in dimension "epsilon".
func TestClusterIDCollision(t *testing.T) {
	const a, b, id = "07c2309ab0c8da", "12846f17294290", 1376905228246987
	c := &epm.Clustering{
		Schema: epm.Schema{Dimension: "epsilon"},
		Clusters: []epm.Cluster{
			{ID: 0, Pattern: epm.Pattern{Values: []string{a}}},
			{ID: 1, Pattern: epm.Pattern{Values: []string{"*"}}},
			{ID: 2, Pattern: epm.Pattern{Values: []string{b}}},
		},
	}
	ids, err := stream.ClusterIDs(c)
	var coll *stream.IDCollisionError
	if !errors.As(err, &coll) {
		t.Fatalf("ClusterIDs error %v, want *IDCollisionError", err)
	}
	if coll.Dimension != "epsilon" || coll.ID != id || coll.Keys != [2]string{a, b} {
		t.Fatalf("collision %+v, want epsilon %d between %q and %q", *coll, id, a, b)
	}
	if len(ids) != 3 || ids[0] != id || ids[2] != id || ids[1] == id || ids[1] >= 1<<53 {
		t.Fatalf("ids %v, want %d at 0 and 2 and a third below 2^53", ids, id)
	}
	c.Schema.Dimension = "pi"
	if ids, err := stream.ClusterIDs(c); err != nil || ids[0] == ids[2] {
		t.Fatalf("in another dimension: ids %v, err %v; want three distinct IDs", ids, err)
	}
}
