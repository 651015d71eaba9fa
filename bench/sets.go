package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/mibench"
	"repro/internal/rtl"
)

// The function sets are fixed by name; only the order requests are
// sent in depends on the seed. Reasons for each choice are recorded in
// README.md.
//
// A round has to be short, so that a run holds many of them and every
// function's latency is a median over many samples: the timed sets are
// the members of F5 a route answers in about two seconds. The layer
// probes of a traced run, which are not held to a bound, keep the
// whole of F5, E2 and G3.
var (
	setF5 = []string{
		"stringsearch/bmh_search",
		"jpeg/get_code",
		"sha/sha_transform",
		"jpeg/rle_block",
		"jpeg/quantize_block",
	}
	setE2 = []string{"jpeg/rle_block", "jpeg/get_code"}
	setG3 = []string{"stringsearch/bmh_search", "jpeg/get_code", "jpeg/rle_block"}

	// Timed default-tier sets, each a subset of F5 (and fleetSet of G3),
	// so every timed row has its probe rows to compare with.
	enumSet  = []string{"stringsearch/bmh_search", "jpeg/get_code", "jpeg/quantize_block"}
	serveSet = []string{"stringsearch/bmh_search", "jpeg/get_code"}
	fleetSet = []string{"jpeg/get_code"}
	// fleetEquiv is the one equiv request of fleet_shard: its space is
	// derived from a sharded default-tier merge, and for this function
	// the derivation is more than half of the answer's time.
	fleetEquiv = "jpeg/fdct_pass"
)

// smallMaxNodes bounds the small set: spaces this size cost a request
// its fixed overhead, not enumeration.
const smallMaxNodes = 130

// sizes scales a pass. The full size is the benchmark; the tiny size
// is what bench_test.go runs.
type sizes struct {
	enum, serve, fleet []string // timed default-tier set per route
	fleetEquiv         string
	f5, e2, g3         []string // the probes' sets; e2 is also the timed equiv set off the fleet
	small              int      // members of the small pool requested; 0 = all of it
	// enumSmall, serveSmall and fleetSmall are how many times a round
	// requests the small set on that route, each time under its own
	// cache key where there is a cache. A small request takes
	// milliseconds and its time comes in bursts (a collection in
	// process, an fsync on the cold path), so it needs more samples
	// than the rounds alone give; the counts keep the small set's share
	// of a round near a quarter.
	enumSmall, serveSmall, fleetSmall int
	memHits                           int // mem-hit POSTs per round, over all clients
	gets                              int // GET /v1/space requests per round
	handler                           int // recorder requests of the http-overhead probe
	maxRounds                         int
	setups                            int // how many times set-up is run; setup_s is the median
}

var fullSizes = sizes{
	enum: enumSet, serve: serveSet, fleet: fleetSet, fleetEquiv: fleetEquiv,
	f5: setF5, e2: setE2, g3: setG3,
	small: 0, enumSmall: 8, serveSmall: 3, fleetSmall: 2,
	memHits: 10000, gets: 500, handler: 5000, maxRounds: 1 << 20, setups: 3,
}

var tinySizes = sizes{
	enum: []string{"bitcount/bit_count"}, serve: []string{"bitcount/bit_count"},
	fleet: []string{"bitcount/bit_count"}, fleetEquiv: "bitcount/bit_count",
	f5: []string{"bitcount/bit_count"}, e2: []string{"bitcount/bit_count"}, g3: []string{"bitcount/bit_count"},
	small: 3, enumSmall: 1, serveSmall: 2, fleetSmall: 1,
	memHits: 200, gets: 20, handler: 50, maxRounds: 1, setups: 1,
}

// spaceID is what identifies an enumerated space on every route: the
// canonical hash and the two counts every route reports.
type spaceID struct {
	Hash     string `json:"space_hash"`
	Nodes    int    `json:"nodes"`
	Attempts int    `json:"attempted_phases"`
}

// manifest is expected_hashes.json: the reference identity of every
// space a workload may request, per tier, from a Workers=1 in-process
// run. Small lists the small set, ordered by node count.
type manifest struct {
	Note   string                        `json:"note"`
	Small  []string                      `json:"small"`
	Spaces map[string]map[string]spaceID `json:"spaces"` // name -> "default"|"equiv" -> id
}

//go:embed expected_hashes.json
var manifestJSON []byte

func loadManifest() (*manifest, error) {
	var m manifest
	if err := json.Unmarshal(manifestJSON, &m); err != nil {
		return nil, fmt.Errorf("decoding expected_hashes.json: %w", err)
	}
	return &m, nil
}

func tierName(equiv bool) string {
	if equiv {
		return "equiv"
	}
	return "default"
}

// check is the correctness gate for one answer: hash and both counts
// must equal the manifest's.
func (m *manifest) check(name string, equiv bool, got spaceID) error {
	want, ok := m.Spaces[name][tierName(equiv)]
	if !ok {
		return fmt.Errorf("%s (%s): not in expected_hashes.json", name, tierName(equiv))
	}
	if got != want {
		return fmt.Errorf("%s (%s): got %+v, want %+v", name, tierName(equiv), got, want)
	}
	return nil
}

// attempts sums the manifest's attempted phases over names.
func (m *manifest) attempts(names []string, equiv bool) int {
	n := 0
	for _, name := range names {
		n += m.Spaces[name][tierName(equiv)].Attempts
	}
	return n
}

// smallSet is the small pool, or its k smallest members when k > 0.
func (m *manifest) smallSet(k int) ([]string, error) {
	if k > len(m.Small) {
		return nil, fmt.Errorf("small pool has %d functions, need %d", len(m.Small), k)
	}
	if k > 0 {
		return m.Small[:k], nil
	}
	return m.Small, nil
}

// shuffled returns names in a seeded order.
func shuffled(rng *rand.Rand, names []string) []string {
	out := append([]string(nil), names...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// corpus is the compiled MiBench suite indexed by "bench/func".
type corpus map[string]*rtl.Func

func compileCorpus() (corpus, error) {
	funcs, err := mibench.AllFunctions()
	if err != nil {
		return nil, fmt.Errorf("compiling corpus: %w", err)
	}
	c := make(corpus, len(funcs))
	for _, tf := range funcs {
		c[tf.Bench+"/"+tf.Func.Name] = tf.Func
	}
	return c, nil
}

func (c corpus) names() []string {
	out := make([]string, 0, len(c))
	for name := range c {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
