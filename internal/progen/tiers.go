package progen

import (
	"fmt"
	"strings"
)

// Tier is one named oracle battery. Its name is what a Failure reports
// and what cmd/progen's -tier flag takes, so every failure's reproduction
// line names a tier that cmd/progen can run.
type Tier struct {
	Name string
	// Check runs the battery over the case generated for seed and reports
	// any divergence as a *Failure carrying Name.
	Check func(seed uint64) error
	// Dump renders the generated case for seed, byte-identical per seed.
	Dump func(seed uint64) string
	// Minimize greedily shrinks a failing seed's case and renders the
	// result with a one-line header saying what it is.
	Minimize func(seed uint64) string
}

// Tiers is the table of every tier, in the order cmd/progen lists them.
var Tiers = []Tier{
	{"cfg", CheckCFGSeed, func(seed uint64) string { return GenCFG(seed).Dump() }, minimizeCFGSeed},
	{"isa", CheckAsmSeed, GenAsm, minimizeAsm(func(src string, _ uint64) error { return checkCompiled(src, "standalone") })},
	{"machine", CheckMachineSeed, GenAsm, minimizeAsm(func(src string, _ uint64) error { return checkMachine(src) })},
	{"attrib", CheckAttributionSeed, GenAsm, minimizeAsm(func(src string, _ uint64) error { return checkAttribution(src) })},
	{"mask", CheckSpawnMaskSeed, GenAsm, minimizeAsm(checkSpawnMask)},
}

// LookupTier returns the tier with the given name.
func LookupTier(name string) (Tier, bool) {
	for _, t := range Tiers {
		if t.Name == name {
			return t, true
		}
	}
	return Tier{}, false
}

// TierNames lists the tier names, comma-separated, in table order.
func TierNames() string {
	names := make([]string, len(Tiers))
	for i, t := range Tiers {
		names[i] = t.Name
	}
	return strings.Join(names, ", ")
}

func minimizeCFGSeed(seed uint64) string {
	m := MinimizeCFG(GenCFG(seed), func(c *CFG) bool { return CheckCFG(c) != nil })
	return "minimized failing graph:\n" + m.Dump()
}

// minimizeAsm shrinks an assembly-generator case against a source-level
// check. The seed is passed through because the mask battery draws its
// mask from it; the shrunk program reproduces together with the seed.
// When the source-level check passes on the full case, the failure does
// not reproduce standalone and the full case is dumped instead.
func minimizeAsm(check func(src string, seed uint64) error) func(uint64) string {
	return func(seed uint64) string {
		src, failed := MinimizeAsmSeed(seed, func(s string) bool { return check(s, seed) != nil })
		if !failed {
			return "minimizer: the source-level check passes standalone; dumping the full case:\n" + src
		}
		return fmt.Sprintf("minimized failing program (seed %d):\n%s", seed, src)
	}
}
