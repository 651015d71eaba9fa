package fingerprint_test

import (
	"math/rand"
	"testing"

	"repro/internal/fingerprint"
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
// the four instances (as compiled, permuted, shuffled, both) fall into
// the classes the value-numbering reference puts them in: any two share
// a key exactly when they share a reference key (equiv_ref_test.go).
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
		for _, fn := range prog.Funcs {
			// Diversify the instance: a short random phase prefix.
			var st opt.State
			for i := uint8(0); i < phases%8; i++ {
				opt.Attempt(fn, &st, all[rng.Intn(len(all))], d)
			}
			if err := rtl.Validate(fn); err != nil {
				t.Fatalf("%s: phase prefix broke the function: %v", fn.Name, err)
			}

			regs := fn.Clone()
			randprog.PermuteRegs(regs, rng)
			blocks := fn.Clone()
			randprog.ShuffleBlocks(blocks, rng)
			if err := rtl.Validate(blocks); err != nil {
				t.Fatalf("%s: block shuffle broke the function: %v", fn.Name, err)
			}
			both := fn.Clone()
			randprog.PermuteRegs(both, rng)
			randprog.ShuffleBlocks(both, rng)

			insts := []*rtl.Func{fn, regs, blocks, both}
			names := []string{"as compiled", "register permutation", "block reordering", "combined transformation"}
			keys, refs := make([]string, len(insts)), make([]string, len(insts))
			for i, in := range insts {
				keys[i], refs[i] = fingerprint.EquivKey(in), string(fingerprint.RefEquivEncode(nil, in))
			}
			for i := 1; i < len(insts); i++ {
				if keys[i] != keys[0] {
					t.Errorf("%s: %s changed the equivalence key\nbefore:\n%s\nafter:\n%s",
						fn.Name, names[i], fn, insts[i])
				}
			}
			for i := range insts {
				for j := i + 1; j < len(insts); j++ {
					if (keys[i] == keys[j]) != (refs[i] == refs[j]) {
						t.Errorf("%s: %s and %s: keys equal %v, reference keys equal %v",
							fn.Name, names[i], names[j], keys[i] == keys[j], refs[i] == refs[j])
					}
				}
			}
		}
	})
}
