// Command progen reproduces and minimizes failures found by the
// generative verification subsystem (internal/progen).
//
// Every oracle failure in the test suite and the fuzz targets prints a
// seed and a ready-to-run command line:
//
//	go run ./cmd/progen -tier attrib -seed 1234            # re-run the oracles
//	go run ./cmd/progen -tier attrib -seed 1234 -dump      # print the generated case
//	go run ./cmd/progen -tier attrib -seed 1234 -minimize  # shrink the failing case
//	go run ./cmd/progen -tier cfg -seed 0 -count 10000     # sweep a seed range
//
// The tiers are the table progen.Tiers; `progen -h` lists their names.
// Generation is a pure function of the seed, so the dumped case is
// byte-identical on every run and every platform. Exit status is 1 when
// any seed fails and 2 on bad usage.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/progen"
)

func main() {
	var (
		tierName = flag.String("tier", "cfg", "tier to run: "+progen.TierNames())
		seed     = flag.Uint64("seed", 0, "generator seed (start of range with -count)")
		count    = flag.Uint64("count", 1, "number of consecutive seeds to check")
		dump     = flag.Bool("dump", false, "print the generated case instead of checking it")
		minimize = flag.Bool("minimize", false, "on failure, greedily shrink the failing case")
	)
	flag.Parse()

	tier, ok := progen.LookupTier(*tierName)
	if !ok {
		fmt.Fprintf(os.Stderr, "progen: unknown tier %q (want %s)\n", *tierName, progen.TierNames())
		os.Exit(2)
	}

	if *dump {
		fmt.Print(tier.Dump(*seed))
		return
	}

	failures := 0
	for s := *seed; s < *seed+*count; s++ {
		err := tier.Check(s)
		if err == nil {
			continue
		}
		failures++
		fmt.Fprintf(os.Stderr, "FAIL %v\n", err)
		if *minimize {
			fmt.Println(tier.Minimize(s))
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "progen: %d of %d seed(s) failed\n", failures, *count)
		os.Exit(1)
	}
	if *count > 1 {
		fmt.Printf("progen: %d seeds OK (tier %s, seeds %d..%d)\n", *count, tier.Name, *seed, *seed+*count-1)
	} else {
		fmt.Printf("progen: seed %d OK (tier %s)\n", *seed, tier.Name)
	}
}
