// Adversarial attacker families ("Poisoning Behavioral Malware
// Clustering", Biggio, Rieck et al.). The attacker controls a set of
// infected hosts and submits crafted samples through the ordinary event
// stream, aiming to corrupt the Bayer-style behavioral clustering:
//
//   - A *bridge chain* interpolates the behavioral feature set of one
//     victim bot family into another's, one feature swap per step. With
//     six-feature victim profiles, adjacent steps share 5 of 7 features
//     (Jaccard 5/7 ≈ 0.714, just above the 0.7 clustering threshold)
//     while steps two apart share 4 of 8 (0.5, below it), so the chain
//     is a sequence of thin links that single-linkage clustering follows
//     from one victim cluster core to the other, merging them.
//
//   - A *dilution family* replays one victim's full profile plus two
//     junk features per variant (Jaccard 6/8 = 0.75 against the victim,
//     0.6 between dilution variants), so every dilution sample links
//     into the victim cluster but not to its siblings, padding the
//     victim cluster with attacker-labeled noise.
//
// The victim profile includes environment-dependent features (a live IRC
// C&C and its payload fetch), so the generator extends the victims' C&C
// availability windows to cover the campaign window: the attacker keeps
// the victim infrastructure observable while its samples execute. Victim
// behavior is unchanged — victim samples only run inside their own
// windows, which were already live.
//
// Everything is derived from the dedicated "poison" rng stream, which is
// only created when Poison.Rate > 0: a rate-zero landscape is
// byte-identical to one generated without this file.
package malgen

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/behavior"
	"repro/internal/netmodel"
	"repro/internal/polymorph"
	"repro/internal/simtime"
)

// PoisonFamilyPrefix starts every attacker family name.
const PoisonFamilyPrefix = "poison"

// BridgeSteps is the number of programs in a bridge chain: one per
// feature swap between two six-feature victim profiles, endpoints
// included.
const BridgeSteps = 7

// DilutionVariants is the number of near-duplicate dilution variants per
// campaign.
const DilutionVariants = 6

// IsPoisonFamily reports whether a ground-truth family name denotes an
// attacker family.
func IsPoisonFamily(name string) bool {
	return strings.HasPrefix(name, PoisonFamilyPrefix)
}

// PoisonClient maps an attacker family name to the client identity its
// events are attributed to ("poison00-bridge" and "poison00-dilute" share
// client "poison00"); it returns "" for non-attacker families, whose
// events arrive through the trusted loopback client.
func PoisonClient(family string) string {
	if !IsPoisonFamily(family) {
		return ""
	}
	if i := strings.IndexByte(family, '-'); i > 0 {
		return family[:i]
	}
	return family
}

// slotRef addresses one of the six feature slots of a victim profile:
// side 0 is victim A, side 1 is victim B. Slot 3 is the IRC connect,
// which also executes the C&C payload (slots 4 and 5) — the sandbox
// dedupes features, so a step may carry a slot directly and via the C&C.
type slotRef struct{ side, slot int }

// bridgeChain is the interpolation schedule. Row k's feature set differs
// from row k+1's by exactly one feature (sets of six; Jaccard 5/7), and
// from row k+2's by two (4/8). Slot 3 implies slots 4 and 5 of the same
// side, which constrains the swap order: the payload features (4, 5) of
// the target side are introduced first and those of the source side are
// re-emitted directly after its IRC connect is dropped.
var bridgeChain = [BridgeSteps][]slotRef{
	{{0, 0}, {0, 1}, {0, 2}, {0, 3}},         // {a1 a2 a3 a4 a5 a6} = victim A
	{{0, 1}, {0, 2}, {0, 3}, {1, 4}},         // a1 -> b5
	{{0, 2}, {0, 3}, {1, 4}, {1, 5}},         // a2 -> b6
	{{0, 3}, {1, 3}},                         // a3 -> b4: both C&Cs
	{{0, 4}, {0, 5}, {1, 3}, {1, 0}},         // a4 -> b1
	{{0, 4}, {0, 5}, {1, 3}, {1, 0}, {1, 1}}, // placeholder, fixed below
	{{1, 0}, {1, 1}, {1, 2}, {1, 3}},         // {b1 b2 b3 b4 b5 b6} = victim B
}

func init() {
	// Step 5 = {a6 b4 b5 b6 b1 b2}: drop a5, keep a6 direct.
	bridgeChain[5] = []slotRef{{0, 5}, {1, 3}, {1, 0}, {1, 1}}
}

// victimSlots extracts the six feature-producing ops of a bot family's
// in-window profile: its four program ops (file, registry, mutex, IRC
// connect) plus direct replicas of the two C&C payload ops the IRC
// connect triggers (network scan, update download). Replica ops emit the
// same (kind, object) profile features as their payload-executed
// counterparts.
func (g *generator) victimSlots(fam *Family, botIdx int) ([6]behavior.Op, error) {
	var slots [6]behavior.Op
	prog := fam.Variants[0].Program
	find := func(kind behavior.OpKind) (behavior.Op, error) {
		for _, op := range prog.Ops {
			if op.Kind == kind {
				return op, nil
			}
		}
		return behavior.Op{}, fmt.Errorf("malgen: victim %s has no %v op", fam.Name, kind)
	}
	var err error
	for i, kind := range []behavior.OpKind{behavior.OpCreateFile, behavior.OpSetRegistry, behavior.OpCreateMutex, behavior.OpIRCConnect} {
		if slots[i], err = find(kind); err != nil {
			return slots, err
		}
	}
	irc := slots[3]
	slots[4] = behavior.Op{Kind: behavior.OpScanNetwork, Port: g.vuln(botIdx).Port}
	slots[5] = behavior.Op{Kind: behavior.OpHTTPDownload, Host: irc.Host, Path: "/update.bin"}
	return slots, nil
}

// poisonVictims picks a campaign's victim bot pair. Candidates exclude
// bot00-style families whose mutex feature is volatile (a per-run random
// object name would blur the interpolation geometry) and the families
// whose C&C goes dark before their last burst (extending their windows
// could change late victim executions).
func (c Config) poisonVictims(campaign int) (a, b int) {
	var cand []int
	for i := 1; i < c.BotFamilies; i++ {
		if i%4 != 0 && i%3 != 0 {
			cand = append(cand, i)
		}
	}
	a = cand[(2*campaign)%len(cand)]
	b = cand[(2*campaign+1)%len(cand)]
	return a, b
}

// poisonFamilies appends the attacker campaigns. It runs after every
// legitimate family so the victim programs exist and the event-volume
// budget can be computed; appending keeps the deployment scheduler's
// per-variant draws for legitimate variants unchanged.
func (g *generator) poisonFamilies() error {
	p := g.cfg.Poison
	if !p.enabled() {
		return nil
	}
	r := g.rng.Stream("poison")

	// Expected legitimate event volume, in WeeklyRate x active-week
	// units; the attacker budget makes poison events Rate of the total.
	var total float64
	for _, f := range g.l.Families {
		for _, v := range f.Variants {
			var weeks float64
			for _, iv := range v.Activity {
				weeks += iv.Duration().Hours() / (24 * 7)
			}
			total += v.WeeklyRate * weeks
		}
	}
	campaigns := p.campaigns()
	perCampaign := p.Rate / (1 - p.Rate) * total / float64(campaigns)

	for c := 0; c < campaigns; c++ {
		if err := g.poisonCampaign(c, r, perCampaign); err != nil {
			return err
		}
	}
	return nil
}

func (g *generator) poisonCampaign(c int, r *rand.Rand, budget float64) error {
	ai, bi := g.cfg.poisonVictims(c)
	famA, famB := g.botFamily(ai), g.botFamily(bi)
	if famA == nil || famB == nil {
		return fmt.Errorf("malgen: poison campaign %d: victim bot families missing", c)
	}
	slotsA, err := g.victimSlots(famA, ai)
	if err != nil {
		return err
	}
	slotsB, err := g.victimSlots(famB, bi)
	if err != nil {
		return err
	}
	slots := [2][6]behavior.Op{slotsA, slotsB}

	// The campaign runs after both victims' first bursts, so their
	// cluster cores are established before bridge samples arrive — the
	// regime the merge-resistance defense is designed for.
	start := simtime.WeekIndex(famA.Variants[0].Activity[0].Start)
	if s := simtime.WeekIndex(famB.Variants[0].Activity[0].Start); s > start {
		start = s
	}
	start += 2
	if max := simtime.WeekCount() - 13; start > max {
		start = max
	}
	if start < 0 {
		start = 0
	}
	window := weekSpan(start, start+12)
	weeks := window.Duration().Hours() / (24 * 7)

	// Keep both victims' C&C channels observable during the campaign.
	for side, fam := range []*Family{famA, famB} {
		irc := slots[side][3]
		server := netmodel.MustParseIP(irc.Host)
		if !g.l.Env.ExtendIRC(server, irc.Port, irc.Channel, window) {
			return fmt.Errorf("malgen: poison campaign %d: victim %s IRC channel not registered", c, fam.Name)
		}
		if !g.l.Env.ExtendHTTP(irc.Host, "/update.bin", window) {
			return fmt.Errorf("malgen: poison campaign %d: victim %s update path not registered", c, fam.Name)
		}
	}

	// 60/40 bridge/dilution budget split, floored so every bridge step
	// reliably produces samples (a chain with a missing step is no
	// bridge at all).
	stepTotal := 0.6 * budget / BridgeSteps
	if stepTotal < 4 {
		stepTotal = 4
	}
	dilTotal := 0.4 * budget / DilutionVariants
	if dilTotal < 3 {
		dilTotal = 3
	}

	newPop := func(expect float64) netmodel.Population {
		size := 2 + int(math.Ceil(expect))
		if size > 40 {
			size = 40
		}
		return netmodel.NewPopulation(r, size, netmodel.Widespread, 0)
	}

	bridge := &Family{
		Name:   fmt.Sprintf("%s%02d-bridge", PoisonFamilyPrefix, c),
		Class:  ClassPoison,
		AVName: avNamePool[(c+4)%len(avNamePool)],
		Impl:   famA.Impl,
		Spec:   famA.Spec,
	}
	engine := polymorph.PerSource{Seed: r.Uint64()}
	tpl := botTemplate(r)
	for k, refs := range bridgeChain {
		ops := make([]behavior.Op, len(refs))
		for i, ref := range refs {
			ops[i] = slots[ref.side][ref.slot]
		}
		bridge.Variants = append(bridge.Variants, &Variant{
			Name:       fmt.Sprintf("%s/v%03d", bridge.Name, k),
			FamilyName: bridge.Name,
			Class:      ClassPoison,
			Template:   tpl,
			Engine:     engine,
			Program:    &behavior.Program{Name: fmt.Sprintf("%s/step%d", bridge.Name, k), Ops: ops},
			Population: newPop(stepTotal),
			Activity:   []simtime.Interval{window},
			WeeklyRate: stepTotal / weeks,
		})
	}
	g.l.Families = append(g.l.Families, bridge)

	dilute := &Family{
		Name:   fmt.Sprintf("%s%02d-dilute", PoisonFamilyPrefix, c),
		Class:  ClassPoison,
		AVName: avNamePool[(c+5)%len(avNamePool)],
		Impl:   famA.Impl,
		Spec:   famA.Spec,
	}
	dilEngine := polymorph.PerSource{Seed: r.Uint64()}
	dilTpl := botTemplate(r)
	for d := 0; d < DilutionVariants; d++ {
		ops := []behavior.Op{slotsA[0], slotsA[1], slotsA[2], slotsA[3],
			{Kind: behavior.OpCreateFile, Path: fmt.Sprintf(`C:\WINDOWS\TEMP\upd-%02d-%02d-a.tmp`, c, d)},
			{Kind: behavior.OpCreateFile, Path: fmt.Sprintf(`C:\WINDOWS\TEMP\upd-%02d-%02d-b.tmp`, c, d)},
		}
		dilute.Variants = append(dilute.Variants, &Variant{
			Name:       fmt.Sprintf("%s/v%03d", dilute.Name, d),
			FamilyName: dilute.Name,
			Class:      ClassPoison,
			Template:   dilTpl,
			Engine:     dilEngine,
			Program:    &behavior.Program{Name: fmt.Sprintf("%s/dup%d", dilute.Name, d), Ops: ops},
			Population: newPop(dilTotal),
			Activity:   []simtime.Interval{window},
			WeeklyRate: dilTotal / weeks,
		})
	}
	g.l.Families = append(g.l.Families, dilute)
	return nil
}

// botFamily resolves a bot family by index, or nil.
func (g *generator) botFamily(i int) *Family {
	name := fmt.Sprintf("bot%02d", i)
	for _, f := range g.l.Families {
		if f.Name == name {
			return f
		}
	}
	return nil
}
