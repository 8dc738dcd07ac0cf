package behavior

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Set is one interned behavioral profile: its feature hashes in hash
// order and its feature names in string order. The table hands out one
// Set per distinct feature set for the life of the process, so samples
// that behaved identically share one Set, and two Sets hold the same
// features exactly when they are the same pointer. A Set is immutable.
type Set struct {
	hashes FeatureSet
	names  []string
	// next chains the sets the table files under one content hash.
	next *Set
}

// Hashes returns the feature hashes in ascending order: the
// representation the B-clustering links and indexes on. The slice is
// shared and must not be modified.
func (s *Set) Hashes() FeatureSet { return s.hashes }

// Names returns the feature names in ascending string order, each the
// dictionary's one copy of that string. The slice is shared and must
// not be modified; its capacity equals its length, so an append copies.
// The empty set's names are an empty, non-nil slice.
func (s *Set) Names() []string { return s.names }

// CollisionError reports two distinct features with one FeatureHash.
// Interning refuses the second instead of letting the two merge into one
// hash, which would make every Jaccard involving them wrong.
type CollisionError struct {
	Hash uint64
	// Known is the feature the dictionary already holds (or the other
	// feature of the same profile); Feature is the one refused.
	Known, Feature string
}

func (e *CollisionError) Error() string {
	return fmt.Sprintf("behavior: features %q and %q share the hash %#016x", e.Known, e.Feature, e.Hash)
}

// table is the process-wide intern table. It is one table for the whole
// process, not one per service, so every shard, replica and restored
// engine of a deployment shares each set, and a set is identified the
// same way wherever it is held. Entries are never removed: a live
// deployment keeps every sample it has seen. The maps are made on first
// use, so the package does no work at start-up.
var table struct {
	mu sync.Mutex
	// dict is the feature dictionary: hash -> the one copy of the string.
	dict map[uint64]string
	// sets files every set under the content hash of its hashes.
	sets  map[uint64]*Set
	count int
}

// Intern returns the interned Set of p's features. The profile remembers
// the Set, so interning it again is one pointer load until the next Add.
// It fails with a *CollisionError when a feature shares its hash with a
// different string.
func Intern(p *Profile) (*Set, error) {
	if s := p.interned.Load(); s != nil {
		return s, nil
	}
	fs := make([]feature, 0, len(p.features))
	for f := range p.features {
		fs = append(fs, feature{FeatureHash(f), f})
	}
	s, err := intern(fs)
	if err != nil {
		return nil, err
	}
	p.interned.Store(s)
	return s, nil
}

// InternFeatures is Intern for a feature list, in any order and with
// duplicates allowed — the form a checkpoint stores a profile in.
func InternFeatures(names []string) (*Set, error) {
	fs := make([]feature, len(names))
	for i, f := range names {
		fs[i] = feature{FeatureHash(f), f}
	}
	return intern(fs)
}

// Interned reports how many distinct sets and features the table holds.
func Interned() (sets, features int) {
	table.mu.Lock()
	defer table.mu.Unlock()
	return table.count, len(table.dict)
}

type feature struct {
	hash uint64
	name string
}

// intern sorts and deduplicates fs, then returns the table's set for it,
// adding one if it is new. The hashing and sorting happen before the
// lock; under it, only map lookups and, for a new set, the copies.
func intern(fs []feature) (*Set, error) {
	slices.SortFunc(fs, func(a, b feature) int {
		if c := cmp.Compare(a.hash, b.hash); c != 0 {
			return c
		}
		return strings.Compare(a.name, b.name)
	})
	n := 0
	for _, f := range fs {
		if n > 0 && f.hash == fs[n-1].hash {
			if f.name != fs[n-1].name {
				return nil, &CollisionError{Hash: f.hash, Known: fs[n-1].name, Feature: f.name}
			}
			continue
		}
		fs[n] = f
		n++
	}
	fs = fs[:n]
	key := contentHash(fs)

	table.mu.Lock()
	defer table.mu.Unlock()
	for _, f := range fs {
		if known, ok := table.dict[f.hash]; ok && known != f.name {
			return nil, &CollisionError{Hash: f.hash, Known: known, Feature: f.name}
		}
	}
	for s := table.sets[key]; s != nil; s = s.next {
		if s.holds(fs) {
			return s, nil
		}
	}
	if table.dict == nil {
		table.dict = make(map[uint64]string)
		table.sets = make(map[uint64]*Set)
	}
	s := &Set{hashes: make(FeatureSet, n), names: make([]string, n), next: table.sets[key]}
	for i, f := range fs {
		name, ok := table.dict[f.hash]
		if !ok {
			name = f.name
			table.dict[f.hash] = name
		}
		s.hashes[i], s.names[i] = f.hash, name
	}
	sort.Strings(s.names)
	table.sets[key] = s
	table.count++
	return s, nil
}

// holds reports whether s has exactly the hashes of fs (sorted, deduped).
func (s *Set) holds(fs []feature) bool {
	if len(s.hashes) != len(fs) {
		return false
	}
	for i, f := range fs {
		if s.hashes[i] != f.hash {
			return false
		}
	}
	return true
}

// contentHash folds a sorted hash set into the one 64-bit key the table
// files it under.
func contentHash(fs []feature) uint64 {
	h := uint64(len(fs)) * 0x9e3779b97f4a7c15
	for _, f := range fs {
		h = mix(h ^ f.hash)
	}
	return h
}

func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
