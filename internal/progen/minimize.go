package progen

// Greedy minimizers. Each works on the generation-level representation
// (graph or shape plan) rather than on text, so every reduction
// step stays well-formed by construction: dropping a shape cannot
// orphan a label, and dropping a CFG node renumbers the survivors.

// MinimizeCFG shrinks a failing GenCFG graph while `failing` keeps
// returning true: first by deleting nodes (entry and exit are kept), then
// by deleting individual edges, to a fixpoint. The input graph is not
// modified.
func MinimizeCFG(c *CFG, failing func(*CFG) bool) *CFG {
	cur := cloneCFG(c)
	for changed := true; changed; {
		changed = false
		// Node deletion, highest index first so renumbering is cheap.
		for v := len(cur.Succs) - 1; v >= 0; v-- {
			if v == cur.Entry || v == cur.Exit {
				continue
			}
			if cand := deleteNode(cur, v); failing(cand) {
				cur, changed = cand, true
			}
		}
		// Edge deletion.
		for v := 0; v < len(cur.Succs); v++ {
			for i := len(cur.Succs[v]) - 1; i >= 0; i-- {
				cand := cloneCFG(cur)
				cand.Succs[v] = append(append([]int{}, cur.Succs[v][:i]...), cur.Succs[v][i+1:]...)
				if failing(cand) {
					cur, changed = cand, true
				}
			}
		}
	}
	return cur
}

func cloneCFG(c *CFG) *CFG {
	out := &CFG{Entry: c.Entry, Exit: c.Exit, Shape: c.Shape, Succs: make([][]int, len(c.Succs))}
	for v, ss := range c.Succs {
		out.Succs[v] = append([]int{}, ss...)
	}
	return out
}

// deleteNode removes v and renumbers nodes above it down by one.
func deleteNode(c *CFG, v int) *CFG {
	remap := func(w int) int {
		if w > v {
			return w - 1
		}
		return w
	}
	out := &CFG{Entry: remap(c.Entry), Exit: remap(c.Exit), Shape: c.Shape}
	for u, ss := range c.Succs {
		if u == v {
			continue
		}
		var ns []int
		for _, w := range ss {
			if w != v {
				ns = append(ns, remap(w))
			}
		}
		out.Succs = append(out.Succs, ns)
	}
	return out
}

// MinimizeAsmSeed regenerates the GenAsm plan for seed and greedily drops
// shapes while `failing` (given the rendered source) still reports an
// error, returning the minimized source. The second result is false when
// the seed does not fail.
func MinimizeAsmSeed(seed uint64, failing func(src string) bool) (string, bool) {
	plan := genAsmPlan(newRNG(seed))
	if !failing(plan.render()) {
		return plan.render(), false
	}
	still := func() bool { return failing(plan.render()) }
	for changed := true; changed; {
		changed = false
		for _, f := range plan.funcs {
			if minimizeShapes(&f.shapes, still) {
				changed = true
			}
		}
	}
	return plan.render(), true
}

// minimizeShapes deletes shapes (recursing into hammock arms, loop bodies
// and switch cases) while stillFailing() holds.
func minimizeShapes(l *[]ashape, stillFailing func() bool) bool {
	changed := false
	for i := len(*l) - 1; i >= 0; i-- {
		saved := *l
		next := append(append([]ashape{}, saved[:i]...), saved[i+1:]...)
		*l = next
		if stillFailing() {
			changed = true
			continue
		}
		*l = saved
		switch n := saved[i].(type) {
		case *hammockShape:
			if minimizeShapes(&n.then, stillFailing) || minimizeShapes(&n.els, stillFailing) {
				changed = true
			}
		case *loopShape:
			if minimizeShapes(&n.body, stillFailing) {
				changed = true
			}
		case *switchShape:
			for c := range n.cases {
				if minimizeShapes(&n.cases[c], stillFailing) {
					changed = true
				}
			}
		}
	}
	return changed
}
