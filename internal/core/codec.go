// Analysis artifact codec: serializes the static products of Analyze —
// CFG block structure, dominator and postdominator trees, control
// dependence graph, loop forest, spawn points — so a cache-warm cell can
// skip the analysis passes entirely. The decode path reconstructs each
// structure from its serialized skeleton (cfg.FromBlocks, dom.Rebuild,
// loops.NewForest) rather than re-running the algorithms; a reconstructed
// Analysis re-encodes byte-identically to a fresh one, which is what lets
// a cell trust an analysis that another process stored in a shared cache.
package core

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/cdg"
	"repro/internal/cfg"
	"repro/internal/dom"
	"repro/internal/isa"
	"repro/internal/loops"
)

// AnalysisSchema identifies the serialized analysis artifact.
const AnalysisSchema = "polyflow-analysis/1"

type analysisJSON struct {
	Schema string     `json:"schema"`
	Funcs  []funcJSON `json:"funcs"`
}

type funcJSON struct {
	Entry    uint64      `json:"entry"`
	End      uint64      `json:"end"`
	Blocks   []blockJSON `json:"blocks"` // real blocks only; the virtual exit is implied
	DomIDom  []int       `json:"dom_idom"`
	PDomIDom []int       `json:"pdom_idom"`
	Controls [][]int     `json:"controls"`
	Loops    []loopJSON  `json:"loops"`
	Spawns   []spawnJSON `json:"spawns"`
}

type blockJSON struct {
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
	Succs []int  `json:"succs"`
}

type loopJSON struct {
	Header  int   `json:"header"`
	Latches []int `json:"latches"`
	Body    []int `json:"body"` // sorted block IDs (the live form is a set)
	Parent  int   `json:"parent"`
	Depth   int   `json:"depth"`
}

type spawnJSON struct {
	From   uint64 `json:"from"`
	Target uint64 `json:"target"`
	Kind   int    `json:"kind"`
}

// EncodeAnalysis serializes an Analysis as a polyflow-analysis/1 artifact.
// The encoding is canonical: encoding a freshly computed analysis and
// encoding a decoded one produce identical bytes (the byte-identity test
// in tracecache_test.go holds this over real workloads).
func EncodeAnalysis(a *Analysis) ([]byte, error) {
	doc := analysisJSON{Schema: AnalysisSchema}
	for _, fa := range a.Funcs {
		g := fa.Graph
		fj := funcJSON{
			Entry:    g.FuncEntry,
			End:      g.FuncEnd,
			DomIDom:  fa.Dom.IDom,
			PDomIDom: fa.PDom.IDom,
			Controls: fa.CDG.Controls,
		}
		for _, b := range g.Blocks {
			if b.Virtual {
				continue
			}
			fj.Blocks = append(fj.Blocks, blockJSON{Start: b.Start, End: b.End, Succs: b.Succs})
		}
		for _, l := range fa.Loops.Loops {
			body := make([]int, 0, len(l.Body))
			for v := range l.Body {
				body = append(body, v)
			}
			sort.Ints(body)
			fj.Loops = append(fj.Loops, loopJSON{
				Header:  l.Header,
				Latches: l.Latches,
				Body:    body,
				Parent:  l.Parent,
				Depth:   l.Depth,
			})
		}
		for _, s := range fa.Spawns {
			fj.Spawns = append(fj.Spawns, spawnJSON{From: s.From, Target: s.Target, Kind: int(s.Kind)})
		}
		doc.Funcs = append(doc.Funcs, fj)
	}
	return json.Marshal(doc)
}

// DecodeAnalysis reconstructs an Analysis for prog from serialized
// polyflow-analysis/1 bytes without re-running any analysis pass. The
// caller is responsible for pairing the bytes with the right program —
// the artifact cache's content addressing (workload, source hash,
// instruction cap) guarantees that pairing.
func DecodeAnalysis(prog *isa.Program, data []byte) (*Analysis, error) {
	var doc analysisJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("core: decoding analysis artifact: %w", err)
	}
	if doc.Schema != AnalysisSchema {
		return nil, fmt.Errorf("core: analysis artifact schema %q, want %q", doc.Schema, AnalysisSchema)
	}
	a := &Analysis{Prog: prog}
	for fi := range doc.Funcs {
		fa, err := decodeFunc(prog, &doc.Funcs[fi])
		if err != nil {
			return nil, fmt.Errorf("core: analysis artifact func %d: %w", fi, err)
		}
		a.Funcs = append(a.Funcs, fa)
		a.Spawns = append(a.Spawns, fa.Spawns...)
	}
	// The same union sort Analyze performs, over the same per-func input
	// order, so the result is identical.
	sort.Slice(a.Spawns, func(i, j int) bool {
		if a.Spawns[i].From != a.Spawns[j].From {
			return a.Spawns[i].From < a.Spawns[j].From
		}
		return a.Spawns[i].Target < a.Spawns[j].Target
	})
	return a, nil
}

func decodeFunc(prog *isa.Program, fj *funcJSON) (*FuncAnalysis, error) {
	n := len(fj.Blocks) + 1 // plus the virtual exit
	blocks := make([]*cfg.Block, 0, n)
	for i, bj := range fj.Blocks {
		blocks = append(blocks, &cfg.Block{ID: i, Start: bj.Start, End: bj.End, Succs: bj.Succs})
	}
	blocks = append(blocks, &cfg.Block{ID: n - 1, Virtual: true})
	g, err := cfg.FromBlocks(prog, fj.Entry, fj.End, blocks)
	if err != nil {
		return nil, err
	}
	if len(fj.DomIDom) != n || len(fj.PDomIDom) != n {
		return nil, fmt.Errorf("dominator arrays sized %d/%d for %d blocks", len(fj.DomIDom), len(fj.PDomIDom), n)
	}
	succs := g.SuccLists()
	preds := g.PredLists()
	fa := &FuncAnalysis{Graph: g}
	if fa.Dom, err = dom.Rebuild(succs, g.Entry(), fj.DomIDom); err != nil {
		return nil, err
	}
	if fa.PDom, err = dom.Rebuild(preds, g.Exit(), fj.PDomIDom); err != nil {
		return nil, err
	}
	fa.CDG, err = decodeCDG(fj.Controls, n)
	if err != nil {
		return nil, err
	}
	fa.Loops, err = decodeLoops(fj.Loops, n)
	if err != nil {
		return nil, err
	}
	for _, sj := range fj.Spawns {
		if sj.Kind < 0 || Kind(sj.Kind) >= NumKinds {
			return nil, fmt.Errorf("spawn kind %d out of range", sj.Kind)
		}
		fa.Spawns = append(fa.Spawns, Spawn{From: sj.From, Target: sj.Target, Kind: Kind(sj.Kind)})
	}
	return fa, nil
}

// decodeCDG rebuilds a cdg.Graph from its Controls lists. DependsOn is
// derived by replaying cdg.Build's insertion order — ascending source
// block, stored dependent order — so the reconstructed lists match the
// originals element for element.
func decodeCDG(controls [][]int, n int) (*cdg.Graph, error) {
	if len(controls) != n {
		return nil, fmt.Errorf("cdg controls sized %d for %d blocks", len(controls), n)
	}
	g := &cdg.Graph{Controls: controls, DependsOn: make([][]int, n)}
	for a, xs := range controls {
		for _, x := range xs {
			if x < 0 || x >= n {
				return nil, fmt.Errorf("cdg dependent %d out of range", x)
			}
			g.DependsOn[x] = append(g.DependsOn[x], a)
		}
	}
	return g, nil
}

func decodeLoops(ljs []loopJSON, n int) (*loops.Forest, error) {
	ls := make([]*loops.Loop, 0, len(ljs))
	for i, lj := range ljs {
		if lj.Parent < -1 || lj.Parent >= len(ljs) {
			return nil, fmt.Errorf("loop %d parent %d out of range", i, lj.Parent)
		}
		body := make(map[int]bool, len(lj.Body))
		for _, v := range lj.Body {
			if v < 0 || v >= n {
				return nil, fmt.Errorf("loop %d body block %d out of range", i, v)
			}
			body[v] = true
		}
		ls = append(ls, &loops.Loop{
			Header:  lj.Header,
			Latches: lj.Latches,
			Body:    body,
			Parent:  lj.Parent,
			Depth:   lj.Depth,
		})
	}
	return loops.NewForest(ls, n), nil
}
