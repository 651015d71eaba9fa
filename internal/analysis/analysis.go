// Package analysis mines enumerated phase order spaces for the
// inter-phase interaction statistics of Section 5: the probability of
// one phase enabling another (Table 4), disabling another (Table 5),
// and of two phases being independent (Table 6).
//
// The DAG nodes are weighted as in Figure 7: a leaf weighs 1 and an
// interior node weighs the sum of its children over its outgoing
// active edges, so a node's weight is the number of distinct active
// sequences beyond that point. Transition counts are adjusted by the
// weight of the child node, following Section 5.1.
package analysis

import (
	"fmt"
	"strings"

	"repro/internal/search"
)

// PhaseIDs is the Table 1 ordering of the fifteen phase designations.
var PhaseIDs = []byte{'b', 'c', 'd', 'g', 'h', 'i', 'j', 'k', 'l', 'n', 'o', 'q', 'r', 's', 'u'}

func phaseIndex(id byte) int {
	for i, p := range PhaseIDs {
		if p == id {
			return i
		}
	}
	return -1
}

// Cyclic reports whether the space's transition graph contains a
// cycle. Identical-instance spaces are acyclic in practice (the paper
// observes no phase undoes another's effect byte-for-byte), but a
// space collapsed by the equivalence tier (search.Options.Equiv) can
// cycle: a phase sequence may return to an *equivalent* spelling of an
// ancestor class, and the fold turns that into a back edge. The
// Figure 7 weighting — and with it the Tables 4-6 mining — is
// undefined on such graphs, so callers check here first.
func Cyclic(r *search.Result) bool {
	state := make([]uint8, len(r.Nodes)) // 0 new, 1 on stack, 2 done
	var stack []int
	for root := range r.Nodes {
		if state[root] != 0 {
			continue
		}
		// Iterative gray/black DFS: a node is pushed once, scanned, and
		// re-visited after its children to be blackened.
		stack = append(stack[:0], root)
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			if state[id] == 0 {
				state[id] = 1
				for _, e := range r.Nodes[id].Edges {
					switch state[e.To] {
					case 1:
						return true
					case 0:
						stack = append(stack, e.To)
					}
				}
				continue
			}
			stack = stack[:len(stack)-1]
			state[id] = 2
		}
	}
	return false
}

// Weights computes the Figure 7 node weighting for a search result and
// stores it on the nodes, returning the weight array indexed by node
// ID. The space must be acyclic (the paper observes VPO's is, since no
// phase undoes the effect of another); a cycle panics — callers that
// may hold an equivalence-collapsed space check Cyclic first.
func Weights(r *search.Result) []float64 {
	w := make([]float64, len(r.Nodes))
	state := make([]uint8, len(r.Nodes)) // 0 new, 1 in progress, 2 done
	var visit func(id int) float64
	visit = func(id int) float64 {
		switch state[id] {
		case 1:
			panic("analysis: phase order space contains a cycle")
		case 2:
			return w[id]
		}
		state[id] = 1
		n := r.Nodes[id]
		if n.IsLeaf() {
			w[id] = 1
		} else {
			sum := 0.0
			for _, e := range n.Edges {
				sum += visit(e.To)
			}
			w[id] = sum
		}
		state[id] = 2
		n.Weight = w[id]
		return w[id]
	}
	visit(0)
	// Nodes unreachable from the root cannot exist by construction,
	// but visit any stragglers defensively.
	for id := range r.Nodes {
		if state[id] == 0 {
			visit(id)
		}
	}
	return w
}

// Interactions holds the aggregated phase interaction statistics.
// Matrices are indexed [row][col] by PhaseIDs position; row = the
// phase being enabled/disabled, col = the phase doing it, matching the
// layout of Tables 4 and 5. Independence is symmetric.
type Interactions struct {
	// StartActive[i] counts functions where phase i is active at the
	// unoptimized root; Functions is the number of spaces aggregated.
	StartActive []float64
	Functions   int

	// Weighted transition tallies.
	EnableNum, EnableDen   [][]float64 // dormant->active / (that + dormant->dormant)
	DisableNum, DisableDen [][]float64 // active->dormant / (that + active->active)
	IndepNum, IndepDen     [][]float64 // same-code / consecutively-active
}

// NewInteractions returns an empty accumulator.
func NewInteractions() *Interactions {
	n := len(PhaseIDs)
	mk := func() [][]float64 {
		m := make([][]float64, n)
		for i := range m {
			m[i] = make([]float64, n)
		}
		return m
	}
	return &Interactions{
		StartActive: make([]float64, n),
		EnableNum:   mk(), EnableDen: mk(),
		DisableNum: mk(), DisableDen: mk(),
		IndepNum: mk(), IndepDen: mk(),
	}
}

// activeSet returns which phases are active at a node as a bitmask
// over PhaseIDs positions, plus the target node per phase.
func activeSet(n *search.Node) (mask uint32, to [16]int) {
	for i := range to {
		to[i] = -1
	}
	for _, e := range n.Edges {
		if i := phaseIndex(e.Phase); i >= 0 {
			mask |= 1 << uint(i)
			to[i] = e.To
		}
	}
	return mask, to
}

// Accumulate folds one enumerated space into the statistics. A cyclic
// space (possible only after equivalence-tier collapse — see Cyclic)
// has no well-defined Figure 7 weighting and is skipped; Accumulate
// reports whether the space was folded in.
func (x *Interactions) Accumulate(r *search.Result) bool {
	if Cyclic(r) {
		return false
	}
	w := Weights(r)
	x.Functions++

	rootMask, _ := activeSet(r.Root())
	for i := range PhaseIDs {
		if rootMask&(1<<uint(i)) != 0 {
			x.StartActive[i]++
		}
	}

	for _, n := range r.Nodes {
		nMask, nTo := activeSet(n)
		for _, e := range n.Edges {
			y := phaseIndex(e.Phase)
			if y < 0 {
				continue
			}
			child := r.Nodes[e.To]
			cMask, _ := activeSet(child)
			cw := w[e.To]
			for i := range PhaseIDs {
				iBit := uint32(1) << uint(i)
				switch {
				case nMask&iBit == 0:
					// Dormant before y: does applying y enable i?
					x.EnableDen[i][y] += cw
					if cMask&iBit != 0 {
						x.EnableNum[i][y] += cw
					}
				default:
					// Active before y: does applying y disable i?
					x.DisableDen[i][y] += cw
					if cMask&iBit == 0 {
						x.DisableNum[i][y] += cw
					}
				}
			}
		}
		// Independence: for every pair of phases active at n in both
		// orders, do the two orders produce identical code?
		for a := 0; a < len(PhaseIDs); a++ {
			if nMask&(1<<uint(a)) == 0 {
				continue
			}
			for b := a + 1; b < len(PhaseIDs); b++ {
				if nMask&(1<<uint(b)) == 0 {
					continue
				}
				ma, mb := nTo[a], nTo[b]
				_, maTo := activeSet(r.Nodes[ma])
				_, mbTo := activeSet(r.Nodes[mb])
				pab := maTo[b] // a then b
				pba := mbTo[a] // b then a
				if pab < 0 || pba < 0 {
					continue // not consecutively active in both orders
				}
				obsW := w[pab]
				if w[pba] > obsW {
					obsW = w[pba]
				}
				x.IndepDen[a][b] += obsW
				x.IndepDen[b][a] += obsW
				if pab == pba {
					x.IndepNum[a][b] += obsW
					x.IndepNum[b][a] += obsW
				}
			}
		}
	}
	return true
}

// ratio returns num/den, or -1 when no observations exist.
func ratio(num, den float64) float64 {
	if den == 0 {
		return -1
	}
	return num / den
}

// Enabling returns the Table 4 matrix: Enabling[i][j] is the
// probability of phase PhaseIDs[i] being enabled by PhaseIDs[j]
// (-1 = never observed).
func (x *Interactions) Enabling() [][]float64 {
	return x.matrix(x.EnableNum, x.EnableDen)
}

// Disabling returns the Table 5 matrix.
func (x *Interactions) Disabling() [][]float64 {
	return x.matrix(x.DisableNum, x.DisableDen)
}

// Independence returns the Table 6 matrix.
func (x *Interactions) Independence() [][]float64 {
	return x.matrix(x.IndepNum, x.IndepDen)
}

func (x *Interactions) matrix(num, den [][]float64) [][]float64 {
	n := len(PhaseIDs)
	m := make([][]float64, n)
	for i := 0; i < n; i++ {
		m[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			m[i][j] = ratio(num[i][j], den[i][j])
		}
	}
	return m
}

// Independent reports the observed independence probability of two
// phases, or -1 when the pair was never seen consecutively active:
// the Section 7 independence statistic, the prior a diamond-completing
// pruned search would consult.
func (x *Interactions) Independent(a, b byte) float64 {
	i, j := phaseIndex(a), phaseIndex(b)
	if i < 0 || j < 0 {
		return -1
	}
	return ratio(x.IndepNum[i][j], x.IndepDen[i][j])
}

// StartProbabilities returns the Table 4 "St" column: the fraction of
// functions at which each phase is active on the unoptimized code.
func (x *Interactions) StartProbabilities() []float64 {
	out := make([]float64, len(PhaseIDs))
	for i := range out {
		if x.Functions > 0 {
			out[i] = x.StartActive[i] / float64(x.Functions)
		}
	}
	return out
}

// FormatTable renders a matrix in the layout of Tables 4-6. Cells
// below minShow print blank, like the papers' "< 0.005" convention;
// when hideAbove is positive, cells above it print blank instead
// (Table 6 hides > 0.995).
func FormatTable(title string, m [][]float64, st []float64, minShow, hideAbove float64) string {
	var sb strings.Builder
	sb.WriteString(title)
	sb.WriteString("\nPhase")
	if st != nil {
		sb.WriteString("    St")
	}
	for _, id := range PhaseIDs {
		fmt.Fprintf(&sb, "     %c", id)
	}
	sb.WriteString("\n")
	for i, id := range PhaseIDs {
		fmt.Fprintf(&sb, "%c    ", id)
		if st != nil {
			sb.WriteString(cell(st[i], minShow, hideAbove))
		}
		for j := range PhaseIDs {
			sb.WriteString(cell(m[i][j], minShow, hideAbove))
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

func cell(v, minShow, hideAbove float64) string {
	if v < minShow || (hideAbove > 0 && v > hideAbove) {
		return "      "
	}
	return fmt.Sprintf("  %4.2f", v)
}
