package fingerprint_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/fingerprint"
	"repro/internal/machine"
	"repro/internal/mc"
	"repro/internal/mibench"
	"repro/internal/opt"
	"repro/internal/randprog"
	"repro/internal/rtl"
	"repro/internal/search"
)

// space is a complete default-tier space that kept its instances.
type space struct {
	name string
	r    *search.Result
}

// spaceOf enumerates the default-tier space of f under a node cap,
// keeping every instance; ok is false when it does not complete.
func spaceOf(name string, f *rtl.Func, maxNodes int) (sp space, ok bool) {
	r := search.Run(f, search.Options{MaxNodes: maxNodes, KeepFuncs: true})
	return space{name, r}, !r.Aborted
}

// eachNode calls visit with every node's instance and the gating-flags
// byte that prefixes its dedup key, the byte the search's class key
// starts with too.
func (sp space) eachNode(visit func(flags byte, inst *rtl.Func)) {
	for _, n := range sp.r.Nodes {
		if n.Quarantine == "" {
			visit(sp.r.NodeKey(n)[0], sp.r.Instance(n))
		}
	}
}

// generatedSpaces returns the spaces of the first generated programs
// whose spaces complete under a node cap: the ones internal/search's
// TestGeneratedSpacesHashOneWay enumerates.
func generatedSpaces(t *testing.T) []space {
	t.Helper()
	n, maxNodes := 16, 1300
	if testing.Short() {
		n, maxNodes = 12, 600
	}
	cfg := randprog.Config{MaxStmts: 3, MaxDepth: 2, MaxExprDepth: 2}
	var spaces []space
	for seed := int64(0); len(spaces) < n; seed++ {
		p := randprog.New(seed, cfg)
		prog, err := mc.Compile(p.Source)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if sp, ok := spaceOf(fmt.Sprintf("randprog seed %d", seed), prog.Func(p.Entry), maxNodes); ok {
			spaces = append(spaces, sp)
		}
	}
	return spaces
}

func corpusFunc(t testing.TB, bench, name string) *rtl.Func {
	t.Helper()
	fns, err := mibench.AllFunctions()
	if err != nil {
		t.Fatal(err)
	}
	for _, tf := range fns {
		if tf.Bench == bench && tf.Func.Name == name {
			return tf.Func
		}
	}
	t.Fatalf("%s/%s is not in the corpus", bench, name)
	return nil
}

// noValueNumbers is the reference with EquivEncode's normalizations.
var noValueNumbers = fingerprint.RefNorm{Layout: true, Spelling: true, Unreachable: true}

// TestEquivEncodeMatchesReference holds EquivEncode to the classes of
// the value-numbering reference at every node of the default-tier spaces
// of rle_block, get_code and fdct_pass (the functions whose equivalence
// spaces the benchmark enumerates) and of the generated programs: two
// nodes share a class key (gating flags, then the encoding) exactly when
// they share a reference class key. Every key is also the reference's
// without value numbers, byte for byte, appended after the flags byte
// into a buffer with room to spare, as the search's workers do.
func TestEquivEncodeMatchesReference(t *testing.T) {
	check := func(t *testing.T, sp space) {
		keyOf := make(map[string]string) // reference key -> key
		refOf := make(map[string]string) // key -> reference key
		sp.eachNode(func(flags byte, inst *rtl.Func) {
			got := fingerprint.EquivEncode(append(make([]byte, 0, 8), flags), inst)
			if want := fingerprint.RefEquivEncodeWith([]byte{flags}, inst, noValueNumbers); !bytes.Equal(got, want) {
				t.Fatalf("%s: EquivEncode differs from the reference without value numbers\n got %x\nwant %x\n%s", sp.name, got, want, inst)
			}
			key, ref := string(got), string(fingerprint.RefEquivEncode([]byte{flags}, inst))
			if k, ok := keyOf[ref]; ok && k != key {
				t.Fatalf("%s: the reference merges an instance EquivEncode keeps apart:\n%s", sp.name, inst)
			}
			if r, ok := refOf[key]; ok && r != ref {
				t.Fatalf("%s: EquivEncode merges an instance the reference keeps apart:\n%s", sp.name, inst)
			}
			keyOf[ref], refOf[key] = key, ref
		})
		t.Logf("%s: %d nodes, %d classes", sp.name, len(sp.r.Nodes), len(refOf))
	}
	t.Run("corpus", func(t *testing.T) {
		for _, fn := range [][2]string{{"jpeg", "rle_block"}, {"jpeg", "get_code"}, {"jpeg", "fdct_pass"}} {
			name := fn[0] + "/" + fn[1]
			sp, ok := spaceOf(name, corpusFunc(t, fn[0], fn[1]), 20000)
			if !ok {
				t.Fatalf("%s: space did not complete under the cap", name)
			}
			check(t, sp)
		}
	})
	t.Run("generated", func(t *testing.T) {
		for _, sp := range generatedSpaces(t) {
			check(t, sp)
		}
	})
}

// TestEquivNormalizationAblation is the record of what each of the
// reference's normalizations merges: over every corpus function whose
// default-tier space completes under 5,000 nodes and the generated
// programs, it counts the folds — nodes minus classes, what
// Equiv.Merged counts when the whole default-tier space is folded —
// with every normalization on, and how many of them are lost with each
// one off. Value numbering must account for none; it is why EquivEncode
// has none, and EquivEncode must be the reference without it, byte for
// byte, on every node.
func TestEquivNormalizationAblation(t *testing.T) {
	maxNodes := 5000
	if testing.Short() || raceEnabled {
		maxNodes = 1500
	}
	cols := []struct {
		name string
		norm fingerprint.RefNorm
	}{
		{"all", fingerprint.RefAll},
		{"-layout", fingerprint.RefNorm{Spelling: true, Unreachable: true, ValueNumbers: true}},
		{"-spelling", fingerprint.RefNorm{Layout: true, Unreachable: true, ValueNumbers: true}},
		{"-unreachable", fingerprint.RefNorm{Layout: true, Spelling: true, ValueNumbers: true}},
		{"-value-numbers", noValueNumbers},
	}
	total := make([]int, len(cols))
	folded := 0
	fold := func(sp space) {
		folded++
		classes := make([]map[string]bool, len(cols))
		for i := range classes {
			classes[i] = make(map[string]bool)
		}
		nodes := 0
		sp.eachNode(func(flags byte, inst *rtl.Func) {
			nodes++
			for i, c := range cols {
				key := fingerprint.RefEquivEncodeWith([]byte{flags}, inst, c.norm)
				if c.norm == noValueNumbers && !bytes.Equal(key, fingerprint.EquivEncode([]byte{flags}, inst)) {
					t.Fatalf("%s: EquivEncode differs from the reference without value numbers\n%s", sp.name, inst)
				}
				classes[i][string(key)] = true
			}
		})
		folds := make([]int, len(cols))
		for i := range cols {
			folds[i] = nodes - len(classes[i])
			total[i] += folds[i]
		}
		if folds[0] != 0 {
			t.Logf("%-28s %6d nodes, folds %v", sp.name, nodes, folds)
		}
		if lost := folds[0] - folds[len(cols)-1]; lost != 0 {
			t.Errorf("%s: value numbering merges %d instances the other normalizations keep apart", sp.name, lost)
		}
	}
	for _, sp := range generatedSpaces(t) {
		fold(sp)
	}
	fns, err := mibench.AllFunctions()
	if err != nil {
		t.Fatal(err)
	}
	for _, tf := range fns {
		if sp, ok := spaceOf(tf.Bench+"/"+tf.Func.Name, tf.Func, maxNodes); ok {
			fold(sp)
		}
	}
	t.Logf("%d spaces under %d nodes; folds with every normalization: %d", folded, maxNodes, total[0])
	for i, c := range cols[1:] {
		t.Logf("  %-15s loses %d", c.name, total[0]-total[i+1])
	}
}

// rleBlockAfterS is jpeg/rle_block after instruction selection: register
// assigned, a few dozen blocks, the function the equivalence tier
// collapses most.
func rleBlockAfterS(t testing.TB) *rtl.Func {
	f := corpusFunc(t, "jpeg", "rle_block").Clone()
	rtl.Cleanup(f)
	var st opt.State
	if !opt.Attempt(f, &st, opt.ByID('s'), machine.StrongARM()) {
		t.Fatal("s is dormant on rle_block")
	}
	return f
}

// TestEquivEncodeAllocs is the encoder's cost guard: with a warm pool and
// a caller buffer large enough, a call allocates nothing — it builds no
// graph, and its tables are the pooled encoder's. The map-based
// reference makes ~130 allocations here.
func TestEquivEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled objects at random")
	}
	f := rleBlockAfterS(t)
	buf := fingerprint.EquivEncode(nil, f) // warms the pool
	buf = make([]byte, 0, 2*len(buf))
	allocs := testing.AllocsPerRun(200, func() { buf = fingerprint.EquivEncode(buf[:0], f) })
	t.Logf("%.1f allocations per call (reference: %.1f)", allocs,
		testing.AllocsPerRun(20, func() { fingerprint.RefEquivEncode(buf[:0], f) }))
	if allocs > 0 {
		t.Fatalf("EquivEncode makes %.1f allocations per call on rle_block, want none", allocs)
	}
}

func BenchmarkEquivEncode(b *testing.B) {
	f := rleBlockAfterS(b)
	for _, enc := range []struct {
		name string
		fn   func([]byte, *rtl.Func) []byte
	}{{"dense", fingerprint.EquivEncode}, {"reference", fingerprint.RefEquivEncode}} {
		b.Run(enc.name, func(b *testing.B) {
			buf := enc.fn(nil, f)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = enc.fn(buf[:0], f)
			}
		})
	}
}
