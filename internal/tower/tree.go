package tower

import (
	"fmt"
	"sort"
	"strings"
)

// This file holds the phylogenetic floors: neighbour-joining tree
// construction (Saitou & Nei 1987) and ancestral sequence reconstruction
// by Fitch parsimony over an MSA.

// TreeNode is one node of a phylogenetic tree.
type TreeNode struct {
	// Leaf index into the input set, or -1 for internal nodes.
	Leaf int
	// Name labels leaves.
	Name string
	// Length is the branch length to the parent.
	Length float64
	// Children are the subtrees (empty for leaves).
	Children []*TreeNode
}

// IsLeaf reports whether the node is a leaf.
func (n *TreeNode) IsLeaf() bool { return len(n.Children) == 0 }

// Newick renders the tree in Newick format.
func (n *TreeNode) Newick() string {
	var sb strings.Builder
	n.newick(&sb)
	sb.WriteByte(';')
	return sb.String()
}

func (n *TreeNode) newick(sb *strings.Builder) {
	if n.IsLeaf() {
		sb.WriteString(n.Name)
	} else {
		sb.WriteByte('(')
		for i, c := range n.Children {
			if i > 0 {
				sb.WriteByte(',')
			}
			c.newick(sb)
		}
		sb.WriteByte(')')
	}
	if n.Length > 0 {
		fmt.Fprintf(sb, ":%.2f", n.Length)
	}
}

// NeighborJoining builds an (unrooted, here arbitrarily rooted at the last
// join) binary tree from a symmetric distance matrix. Leaf i gets
// names[i] (or "L<i>" when names is nil).
func NeighborJoining(dist [][]float64, names []string) (*TreeNode, error) {
	n := len(dist)
	if n == 0 {
		return nil, fmt.Errorf("tower: empty distance matrix")
	}
	for i := range dist {
		if len(dist[i]) != n {
			return nil, fmt.Errorf("tower: distance matrix row %d has %d entries, want %d", i, len(dist[i]), n)
		}
	}
	name := func(i int) string {
		if names != nil && i < len(names) {
			return names[i]
		}
		return fmt.Sprintf("L%d", i)
	}
	if n == 1 {
		return &TreeNode{Leaf: 0, Name: name(0)}, nil
	}

	// Active nodes and a working copy of the matrix.
	nodes := make([]*TreeNode, n)
	for i := range nodes {
		nodes[i] = &TreeNode{Leaf: i, Name: name(i)}
	}
	d := make([][]float64, n)
	for i := range d {
		d[i] = append([]float64(nil), dist[i]...)
	}
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}

	for len(active) > 2 {
		m := len(active)
		// Row sums over active entries.
		r := make(map[int]float64, m)
		for _, i := range active {
			for _, j := range active {
				r[i] += d[i][j]
			}
		}
		// Minimize the Q criterion.
		bi, bj := -1, -1
		bestQ := 0.0
		first := true
		for x := 0; x < m; x++ {
			for y := x + 1; y < m; y++ {
				i, j := active[x], active[y]
				q := float64(m-2)*d[i][j] - r[i] - r[j]
				if first || q < bestQ {
					bestQ, bi, bj, first = q, i, j, false
				}
			}
		}
		// Branch lengths to the new node.
		li := d[bi][bj]/2 + (r[bi]-r[bj])/(2*float64(m-2))
		lj := d[bi][bj] - li
		if li < 0 {
			li = 0
		}
		if lj < 0 {
			lj = 0
		}
		nodes[bi].Length = li
		nodes[bj].Length = lj
		parent := &TreeNode{Leaf: -1, Children: []*TreeNode{nodes[bi], nodes[bj]}}

		// New distances: d(u,k) = (d(i,k)+d(j,k)-d(i,j))/2, reusing
		// slot bi for the new node.
		for _, k := range active {
			if k == bi || k == bj {
				continue
			}
			nd := (d[bi][k] + d[bj][k] - d[bi][bj]) / 2
			if nd < 0 {
				nd = 0
			}
			d[bi][k] = nd
			d[k][bi] = nd
		}
		nodes[bi] = parent
		// Remove bj from the active set.
		out := active[:0]
		for _, k := range active {
			if k != bj {
				out = append(out, k)
			}
		}
		active = out
	}
	// Join the last two.
	i, j := active[0], active[1]
	nodes[i].Length = d[i][j] / 2
	nodes[j].Length = d[i][j] / 2
	return &TreeNode{Leaf: -1, Children: []*TreeNode{nodes[i], nodes[j]}}, nil
}

// FitchAncestral reconstructs the root-most ancestral sequence of an MSA
// under Fitch parsimony on the given tree. Rows of msa correspond to leaf
// indices. Gap columns resolve to gaps only if parsimony demands it; the
// returned string has gaps stripped.
func FitchAncestral(tree *TreeNode, msa []string) (string, error) {
	if len(msa) == 0 {
		return "", fmt.Errorf("tower: empty MSA")
	}
	width := len(msa[0])
	for i, r := range msa {
		if len(r) != width {
			return "", fmt.Errorf("tower: MSA row %d has length %d, want %d", i, len(r), width)
		}
	}
	var sb strings.Builder
	for col := 0; col < width; col++ {
		set, err := fitchUp(tree, msa, col)
		if err != nil {
			return "", err
		}
		// Deterministic choice: smallest character, preferring
		// residues over gaps.
		chars := make([]byte, 0, len(set))
		for c := range set {
			chars = append(chars, c)
		}
		sort.Slice(chars, func(a, b int) bool { return chars[a] < chars[b] })
		pick := chars[0]
		if pick == Gap && len(chars) > 1 {
			pick = chars[1]
		}
		if pick != Gap {
			sb.WriteByte(pick)
		}
	}
	return sb.String(), nil
}

// fitchUp computes the Fitch state set of a node for one column.
func fitchUp(n *TreeNode, msa []string, col int) (map[byte]bool, error) {
	if n.IsLeaf() {
		if n.Leaf < 0 || n.Leaf >= len(msa) {
			return nil, fmt.Errorf("tower: tree leaf %d outside MSA of %d rows", n.Leaf, len(msa))
		}
		return map[byte]bool{msa[n.Leaf][col]: true}, nil
	}
	sets := make([]map[byte]bool, len(n.Children))
	for i, c := range n.Children {
		s, err := fitchUp(c, msa, col)
		if err != nil {
			return nil, err
		}
		sets[i] = s
	}
	// Intersection if non-empty, else union.
	inter := map[byte]bool{}
	for c := range sets[0] {
		all := true
		for _, s := range sets[1:] {
			if !s[c] {
				all = false
				break
			}
		}
		if all {
			inter[c] = true
		}
	}
	if len(inter) > 0 {
		return inter, nil
	}
	union := map[byte]bool{}
	for _, s := range sets {
		for c := range s {
			union[c] = true
		}
	}
	return union, nil
}
