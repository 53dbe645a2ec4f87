package graph

// BFS performs a breadth-first search from root and returns the visit order
// and the parent of each visited vertex (−1 for the root and for unreached
// vertices). The order contains only vertices reachable from root.
func (g *Graph) BFS(root int) (order []int, parent []int) {
	n := g.N()
	parent = make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	seen := make([]bool, n)
	order = make([]int, 0, n)
	queue := []int{root}
	seen[root] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		nbr, _ := g.Neighbors(v)
		for _, u := range nbr {
			if !seen[u] {
				seen[u] = true
				parent[u] = v
				queue = append(queue, int(u))
			}
		}
	}
	return order, parent
}

// Components labels each vertex with a connected-component id in [0, k) and
// returns the labels and the component count k.
func (g *Graph) Components() (label []int, k int) {
	n := g.N()
	label = make([]int, n)
	for i := range label {
		label[i] = -1
	}
	var stack []int
	for s := 0; s < n; s++ {
		if label[s] >= 0 {
			continue
		}
		label[s] = k
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			nbr, _ := g.Neighbors(v)
			for _, u := range nbr {
				if label[u] < 0 {
					label[u] = k
					stack = append(stack, int(u))
				}
			}
		}
		k++
	}
	return label, k
}

// Connected reports whether g is connected. The empty graph and single
// vertices count as connected.
func (g *Graph) Connected() bool {
	if g.N() <= 1 {
		return true
	}
	_, k := g.Components()
	return k == 1
}

// IsForest reports whether g contains no cycles. A graph with at least as
// many edges as vertices has one, which needs no traversal to tell.
func (g *Graph) IsForest() bool {
	if g.N() > 0 && g.M() >= g.N() {
		return false
	}
	_, k := g.Components()
	return g.M() == g.N()-k
}

// IsTree reports whether g is connected and acyclic.
func (g *Graph) IsTree() bool {
	return g.N() >= 1 && g.M() == g.N()-1 && g.Connected()
}
