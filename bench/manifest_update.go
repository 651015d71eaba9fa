package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/search"
)

// updateManifest regenerates expected_hashes.json. The reference is a
// Workers=1 in-process run and nothing else; every other route (any
// width, served cold, disk hit, mem hit, download, sharded fleet) is
// then run once against it, and one disagreement anywhere leaves the
// file unwritten.
func updateManifest(outPath, spacesDir, workDir string) error {
	corp, err := compileCorpus()
	if err != nil {
		return err
	}
	m := &manifest{
		Note: "Reference identity of every space the benchmark requests: canonical hash, nodes and attempted " +
			"phases per tier, from search.Run with Workers=1. Regenerate with -update-manifest only.",
		Spaces: make(map[string]map[string]spaceID),
	}
	reference := func(name string, maxNodes int) (bool, error) {
		tiers := make(map[string]spaceID, 2)
		for _, equiv := range []bool{false, true} {
			res := search.Run(corp[name], search.Options{Workers: 1, Equiv: equiv, MaxNodes: maxNodes})
			if res.Aborted && maxNodes > 0 {
				return false, nil
			}
			id, err := identify(res)
			if err != nil {
				return false, err
			}
			tiers[tierName(equiv)] = id
		}
		m.Spaces[name] = tiers
		return true, nil
	}

	named := make(map[string]bool)
	for _, set := range [][]string{setF5, setE2, setG3, enumSet, serveSet, fleetSet, {fleetEquiv}, tinySizes.f5} {
		for _, name := range set {
			named[name] = true
		}
	}
	for _, name := range corp.names() {
		// A named function is referenced uncapped. For the rest, a run
		// capped at the small set's bound either aborts (too big for
		// the set) or is the uncapped space.
		maxNodes := smallMaxNodes
		if named[name] {
			maxNodes = 0
		}
		ok, err := reference(name, maxNodes)
		if err != nil {
			return err
		}
		switch nodes := m.Spaces[name]["default"].Nodes; {
		case ok && nodes <= smallMaxNodes:
			m.Small = append(m.Small, name)
			fmt.Fprintf(os.Stderr, "reference %-30s %6d nodes (small set)\n", name, nodes)
		case named[name]:
			fmt.Fprintf(os.Stderr, "reference %-30s %6d nodes\n", name, nodes)
		default:
			delete(m.Spaces, name)
		}
	}
	sort.Slice(m.Small, func(i, j int) bool {
		a, b := m.Spaces[m.Small[i]]["default"].Nodes, m.Spaces[m.Small[j]]["default"].Nodes
		if a != b {
			return a < b
		}
		return m.Small[i] < m.Small[j]
	})

	if err := crossCheckArtifacts(m, spacesDir); err != nil {
		return err
	}
	manifestJSON, err = json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	manifestJSON = append(manifestJSON, '\n')

	// Every route against the new reference, each workload one round.
	sz := fullSizes
	sz.maxRounds, sz.setups, sz.memHits, sz.gets = 1, 1, 2000, 200
	for _, name := range workloadNames {
		rep, err := runWorkload(config{workload: name, seed: 1, workDir: workDir, sz: sz}, "")
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if !rep.Correct {
			return fmt.Errorf("%s disagrees with the Workers=1 reference: %s", name, strings.Join(rep.Failures, "; "))
		}
		fmt.Fprintf(os.Stderr, "route %-12s agrees on %d operations\n", name, rep.Attempted)
	}
	return os.WriteFile(outPath, manifestJSON, 0o644)
}

// crossCheckArtifacts compares the reference with every committed
// space artifact of a manifest function. An artifact that does not
// decode is reported and skipped (the ones committed at the time of
// writing have lost their non-ASCII bytes); one that decodes and
// disagrees refuses the update.
func crossCheckArtifacts(m *manifest, dir string) error {
	checked, unreadable := 0, 0
	for name, tiers := range m.Spaces {
		path := filepath.Join(dir, strings.Replace(name, "/", ".", 1)+".space.gz")
		if _, err := os.Stat(path); err != nil {
			continue // no artifact committed for this function
		}
		res, err := search.LoadFile(path)
		if err != nil {
			unreadable++
			continue
		}
		hash, err := res.CanonicalHash()
		if err != nil {
			return err
		}
		if hash != tiers["default"].Hash {
			return fmt.Errorf("artifact %s hashes %s, the Workers=1 run %s", path, hash, tiers["default"].Hash)
		}
		checked++
	}
	fmt.Fprintf(os.Stderr, "%d committed space artifacts agree with the reference, %d do not decode\n", checked, unreadable)
	return nil
}
