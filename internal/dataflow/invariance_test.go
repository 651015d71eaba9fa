package dataflow_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fingerprint"
	"repro/internal/machine"
	"repro/internal/mc"
	"repro/internal/opt"
	"repro/internal/randprog"
	"repro/internal/rtl"
)

// TestEquivInvarianceSeeds runs the invariance legs of
// fingerprint's FuzzEquivInvariance over a deterministic seed matrix,
// so the property is exercised by the ordinary test suite (and CI)
// even when fuzzing is not enabled.
func TestEquivInvarianceSeeds(t *testing.T) {
	programs := int64(12)
	if testing.Short() {
		programs = 3
	}
	d := machine.StrongARM()
	all := opt.All()
	for seed := int64(0); seed < programs; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			p := randprog.New(seed, randprog.Config{})
			prog, err := mc.Compile(p.Source)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			rng := rand.New(rand.NewSource(seed ^ 0x9e37))
			for _, fn := range prog.Funcs {
				var st opt.State
				for i := 0; i < int(seed%6); i++ {
					opt.Attempt(fn, &st, all[rng.Intn(len(all))], d)
				}
				want := fingerprint.EquivKey(fn)
				for trial := 0; trial < 4; trial++ {
					mut := fn.Clone()
					randprog.PermuteRegs(mut, rng)
					randprog.ShuffleBlocks(mut, rng)
					if err := rtl.Validate(mut); err != nil {
						t.Fatalf("%s: transformation broke the function: %v", fn.Name, err)
					}
					if got := fingerprint.EquivKey(mut); got != want {
						t.Fatalf("%s trial %d: equivalence key not invariant\nbefore:\n%s\nafter:\n%s",
							fn.Name, trial, fn, mut)
					}
				}
			}
		})
	}
}
