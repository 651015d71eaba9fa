package dataflow_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/machine"
	"repro/internal/mc"
	"repro/internal/opt"
	"repro/internal/randprog"
	"repro/internal/rtl"
)

// FuzzEquivInvariance is the canonicalizer's central contract: the
// equivalence key of a function is invariant under random register
// permutations and random semantics-preserving block reorderings.
// Each fuzz input compiles a random mini-C program, optionally runs a
// random phase prefix to diversify the instance shapes, applies the
// two transformation legs and asserts the key never moves — and that
// every key it computes is the reference encoder's, byte for byte
// (equiv_ref_test.go).
func FuzzEquivInvariance(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		f.Add(seed, seed*131+7, uint8(seed%4))
	}
	d := machine.StrongARM()
	all := opt.All()
	f.Fuzz(func(t *testing.T, progSeed, xformSeed int64, phases uint8) {
		p := randprog.New(progSeed, randprog.Config{})
		prog, err := mc.Compile(p.Source)
		if err != nil {
			t.Skipf("generated program does not compile: %v", err)
		}
		rng := rand.New(rand.NewSource(xformSeed))
		key := func(fn *rtl.Func) string {
			k := dataflow.EquivKey(fn)
			if ref := dataflow.RefEquivEncode(nil, fn); k != string(ref) {
				t.Fatalf("%s: EquivEncode differs from the reference\n got %x\nwant %x\n%s", fn.Name, k, ref, fn)
			}
			return k
		}
		for _, fn := range prog.Funcs {
			// Diversify the instance: a short random phase prefix.
			var st opt.State
			for i := uint8(0); i < phases%8; i++ {
				opt.Attempt(fn, &st, all[rng.Intn(len(all))], d)
			}
			if err := rtl.Validate(fn); err != nil {
				t.Fatalf("%s: phase prefix broke the function: %v", fn.Name, err)
			}
			want := key(fn)

			regs := fn.Clone()
			permuteRegs(regs, rng)
			if got := key(regs); got != want {
				t.Errorf("%s: register permutation changed the equivalence key", fn.Name)
			}

			blocks := fn.Clone()
			shuffleBlocks(blocks, rng)
			if err := rtl.Validate(blocks); err != nil {
				t.Fatalf("%s: block shuffle broke the function: %v", fn.Name, err)
			}
			if got := key(blocks); got != want {
				t.Errorf("%s: block reordering changed the equivalence key\nbefore:\n%s\nafter:\n%s",
					fn.Name, fn, blocks)
			}

			both := fn.Clone()
			permuteRegs(both, rng)
			shuffleBlocks(both, rng)
			if got := key(both); got != want {
				t.Errorf("%s: combined transformation changed the equivalence key", fn.Name)
			}
		}
	})
}

// TestEquivInvarianceSeeds runs the fuzz body over a deterministic
// seed matrix so the invariance property is exercised by the ordinary
// test suite (and CI) even when fuzzing is not enabled.
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
				want := dataflow.EquivKey(fn)
				for trial := 0; trial < 4; trial++ {
					mut := fn.Clone()
					permuteRegs(mut, rng)
					shuffleBlocks(mut, rng)
					if err := rtl.Validate(mut); err != nil {
						t.Fatalf("%s: transformation broke the function: %v", fn.Name, err)
					}
					if got := dataflow.EquivKey(mut); got != want {
						t.Fatalf("%s trial %d: equivalence key not invariant\nbefore:\n%s\nafter:\n%s",
							fn.Name, trial, fn, mut)
					}
				}
			}
		})
	}
}
