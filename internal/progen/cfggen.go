package progen

import (
	"fmt"
	"strings"
)

// Shape selects how a GenCFG graph is generated.
type Shape int

// CFG generation shapes.
const (
	// ShapeStructured builds the graph from nested single-entry
	// single-exit constructs (sequence, if-then, if-else, multiway
	// switch, while, do-while) — reducible by construction.
	ShapeStructured Shape = iota
	// ShapeNoisy starts structured and then adds random cross edges,
	// which may jump into loop bodies and make the graph irreducible.
	ShapeNoisy
	// ShapeRandom wires every node to arbitrary targets: unreachable
	// nodes, nodes that cannot reach the exit, multi-entry loops and
	// self-loops all occur.
	ShapeRandom
	numShapes
)

// String names the shape.
func (s Shape) String() string {
	switch s {
	case ShapeStructured:
		return "structured"
	case ShapeNoisy:
		return "noisy"
	case ShapeRandom:
		return "random"
	}
	return fmt.Sprintf("shape(%d)", int(s))
}

// CFG is one generated graph.
type CFG struct {
	Succs [][]int
	Entry int
	Exit  int // exit has no successors except under ShapeRandom
	Shape Shape
}

// NumNodes returns the node count.
func (c *CFG) NumNodes() int { return len(c.Succs) }

// Dump renders the graph as a deterministic adjacency listing, the
// standalone form cmd/progen prints for reproduction and minimization.
func (c *CFG) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cfg %s: %d nodes, entry=%d exit=%d\n", c.Shape, len(c.Succs), c.Entry, c.Exit)
	for v, ss := range c.Succs {
		fmt.Fprintf(&b, "  %d -> %v\n", v, ss)
	}
	return b.String()
}

// GenCFG generates a graph for the seed, picking the shape and size from
// the seed itself.
func GenCFG(seed uint64) *CFG {
	r := newRNG(seed)
	shape := Shape(r.intn(int(numShapes)))
	return genCFG(r, shape, 4+r.intn(14))
}

// GenCFGShaped generates a graph of the given shape with at most maxNodes
// nodes (minimum 4). Like GenCFG it is a pure function of its arguments.
func GenCFGShaped(seed uint64, shape Shape, maxNodes int) *CFG {
	if maxNodes < 4 {
		maxNodes = 4
	}
	return genCFG(newRNG(seed), shape, maxNodes)
}

func genCFG(r *rng, shape Shape, maxNodes int) *CFG {
	if shape == ShapeRandom {
		return genRandomCFG(r, maxNodes)
	}
	b := &cfgBuilder{r: r, budget: maxNodes - 2}
	entry := b.newNode()
	exit := b.newNode()
	b.region(entry, exit, 0)
	c := &CFG{Succs: b.succs, Entry: entry, Exit: exit, Shape: shape}
	if shape == ShapeNoisy {
		n := len(c.Succs)
		for extra := r.rangeInt(1, 3); extra > 0; extra-- {
			from := r.intn(n)
			if from == exit {
				continue
			}
			b.edge(from, r.intn(n))
		}
	}
	return c
}

// cfgBuilder grows a structured graph recursively. region(a, b) assigns
// node a its successors and wires control from a to b through fresh
// interior nodes; b's own successors are assigned by b's enclosing region,
// so the designated exit never gets any.
type cfgBuilder struct {
	succs  [][]int
	r      *rng
	budget int
}

func (b *cfgBuilder) newNode() int {
	b.succs = append(b.succs, nil)
	return len(b.succs) - 1
}

func (b *cfgBuilder) edge(from, to int) {
	for _, s := range b.succs[from] {
		if s == to {
			return
		}
	}
	b.succs[from] = append(b.succs[from], to)
}

// take consumes n nodes from the budget, reporting whether they were
// available.
func (b *cfgBuilder) take(n int) bool {
	if b.budget < n {
		return false
	}
	b.budget -= n
	return true
}

func (b *cfgBuilder) region(from, to, depth int) {
	if depth > 6 {
		b.edge(from, to)
		return
	}
	switch b.r.intn(7) {
	case 0: // straight edge
		b.edge(from, to)
	case 1: // chain: from -> c -> to
		if !b.take(1) {
			b.edge(from, to)
			return
		}
		c := b.newNode()
		b.edge(from, c)
		b.region(c, to, depth+1)
	case 2: // if-then: from branches to a then-region or straight to to
		if !b.take(1) {
			b.edge(from, to)
			return
		}
		t := b.newNode()
		b.edge(from, t)
		b.edge(from, to)
		b.region(t, to, depth+1)
	case 3: // if-else with an explicit join node
		if !b.take(3) {
			b.edge(from, to)
			return
		}
		t, e, j := b.newNode(), b.newNode(), b.newNode()
		b.edge(from, t)
		b.edge(from, e)
		b.region(t, j, depth+1)
		b.region(e, j, depth+1)
		b.region(j, to, depth+1)
	case 4: // multiway switch joining at j
		arms := b.r.rangeInt(2, 3)
		if !b.take(arms + 1) {
			b.edge(from, to)
			return
		}
		j := b.newNode()
		for i := 0; i < arms; i++ {
			t := b.newNode()
			b.edge(from, t)
			b.region(t, j, depth+1)
		}
		b.region(j, to, depth+1)
	case 5: // while loop: header tests, body regions back to header
		if !b.take(2) {
			b.edge(from, to)
			return
		}
		h, body := b.newNode(), b.newNode()
		b.edge(from, h)
		b.edge(h, body)
		b.edge(h, to)
		b.region(body, h, depth+1)
	case 6: // do-while: body runs once, latch branches back or exits
		if !b.take(2) {
			b.edge(from, to)
			return
		}
		body, latch := b.newNode(), b.newNode()
		b.edge(from, body)
		b.region(body, latch, depth+1)
		b.edge(latch, body)
		b.edge(latch, to)
	}
}

// genRandomCFG wires nodes arbitrarily: entry 0, exit n-1, every non-exit
// node gets 1-3 successors anywhere in the graph.
func genRandomCFG(r *rng, maxNodes int) *CFG {
	n := r.rangeInt(3, maxNodes)
	succs := make([][]int, n)
	exit := n - 1
	for v := 0; v < n; v++ {
		if v == exit {
			continue
		}
		deg := r.rangeInt(1, 3)
		for d := 0; d < deg; d++ {
			// Bias toward forward edges so most graphs have long paths,
			// while still producing back and cross edges.
			var w int
			if r.chance(2, 3) && v+1 < n {
				w = v + 1 + r.intn(n-v-1)
			} else {
				w = r.intn(n)
			}
			add := true
			for _, s := range succs[v] {
				if s == w {
					add = false
					break
				}
			}
			if add {
				succs[v] = append(succs[v], w)
			}
		}
	}
	return &CFG{Succs: succs, Entry: 0, Exit: exit, Shape: ShapeRandom}
}
