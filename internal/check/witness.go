package check

import (
	"fmt"
	"strings"

	"repro/internal/rtl"
)

// The path witnesses behind Diagnostic.Witness: shortest block traces
// through the CFG (layout positions), rendered as block IDs.

// pathTo returns a shortest control-flow path (block layout
// positions) from the entry block to target, skipping blocks for
// which avoid reports true (avoid is never consulted for the target
// itself, and a nil avoid admits every block). It returns nil when no
// such path exists.
func pathTo(g *rtl.CFG, target int, avoid func(bpos int) bool) []int {
	blocked := func(b int) bool { return b != target && avoid != nil && avoid(b) }
	return bfs(g, 0, func(b int) bool { return b == target }, blocked)
}

// pathToExit returns a shortest control-flow path from the block at
// layout position from to any exit block (one without successors),
// skipping blocks for which avoid reports true. It returns nil when
// no such path exists.
func pathToExit(g *rtl.CFG, from int, avoid func(bpos int) bool) []int {
	blocked := func(b int) bool { return b != from && avoid != nil && avoid(b) }
	return bfs(g, from, func(b int) bool { return len(g.Succs[b]) == 0 }, blocked)
}

// bfs finds a shortest path from start to a block satisfying goal,
// never entering blocks for which blocked reports true (start is
// always entered).
func bfs(g *rtl.CFG, start int, goal func(int) bool, blocked func(int) bool) []int {
	if start < 0 || start >= len(g.Succs) {
		return nil
	}
	parent := make([]int, len(g.Succs))
	for i := range parent {
		parent[i] = -2 // unvisited
	}
	parent[start] = -1
	queue := []int{start}
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		if goal(b) {
			var rev []int
			for cur := b; cur != -1; cur = parent[cur] {
				rev = append(rev, cur)
			}
			path := make([]int, len(rev))
			for i, p := range rev {
				path[len(rev)-1-i] = p
			}
			return path
		}
		for _, s := range g.Succs[b] {
			if parent[s] == -2 && !blocked(s) {
				parent[s] = b
				queue = append(queue, s)
			}
		}
	}
	return nil
}

// blockIDs converts a path of layout positions into the corresponding
// block IDs (the labels diagnostics print as L<id>).
func blockIDs(f *rtl.Func, path []int) []int {
	ids := make([]int, len(path))
	for i, p := range path {
		ids[i] = f.Blocks[p].ID
	}
	return ids
}

// FormatIDPath renders a block-ID path as "L0 -> L2 -> L5"; an empty
// path renders as "".
func FormatIDPath(ids []int) string {
	if len(ids) == 0 {
		return ""
	}
	var sb strings.Builder
	for i, id := range ids {
		if i > 0 {
			sb.WriteString(" -> ")
		}
		fmt.Fprintf(&sb, "L%d", id)
	}
	return sb.String()
}
