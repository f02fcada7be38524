package graph

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Edge-list I/O.
//
// The on-disk format is a plain text edge list, one arc per line:
//
//	# comment lines start with '#'
//	<src> <dst> [<weight>]
//
// Fields are separated by tabs or spaces. Node ids are non-negative integers.
// This covers the formats the paper's datasets ship in (SNAP/hetrec-style
// TSV). A "nodes=N" token in a comment line, as in the header WriteEdgeList
// writes, means the graph has at least N nodes, so isolated nodes past the
// largest id an edge line names survive a round trip.

// WriteEdgeList writes g to w in edge-list form. Undirected edges are written
// once (u ≤ v). Weights are written only for weighted graphs, using %g.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# %s\n", g.String()); err != nil {
		return err
	}
	n := g.NumNodes()
	if _, err := fmt.Fprintf(bw, "# nodes=%d edges=%d kind=%s weighted=%v\n",
		n, g.NumEdges(), g.kind, g.Weighted()); err != nil {
		return err
	}
	for u := int32(0); int(u) < n; u++ {
		lo, hi := g.offsets[u], g.offsets[u+1]
		for k := lo; k < hi; k++ {
			v := g.targets[k]
			if g.kind == Undirected && v < u {
				continue // mirrored arc; the u ≤ v copy is written elsewhere
			}
			var err error
			if g.Weighted() {
				_, err = fmt.Fprintf(bw, "%d\t%d\t%g\n", u, v, g.ArcWeight(k))
			} else {
				_, err = fmt.Fprintf(bw, "%d\t%d\n", u, v)
			}
			if err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses an edge list written by WriteEdgeList or any compatible
// producer. kind and weighted describe how to interpret the lines; weight
// columns are required when weighted is true and ignored when false.
func ReadEdgeList(r io.Reader, kind Kind, weighted bool) (*Graph, error) {
	b := NewBuilder(kind).AllowSelfLoops()
	if weighted {
		b.Weighted()
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	lineNo := 0
	headerNodes := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			n, err := nodesHeader(line)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
			}
			headerNodes = max(headerNodes, n)
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want at least 2 fields, got %q", lineNo, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source %q: %v", lineNo, fields[0], err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad target %q: %v", lineNo, fields[1], err)
		}
		w := 1.0
		if weighted {
			if len(fields) < 3 {
				return nil, fmt.Errorf("graph: line %d: weighted graph but no weight column", lineNo)
			}
			w, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad weight %q: %v", lineNo, fields[2], err)
			}
		}
		b.AddWeightedEdge(int32(u), int32(v), w)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: read: %w", err)
	}
	// The node count, max(header N, largest edge id + 1), sizes the graph's
	// offset table, so a one-line file naming a huge count or id would demand
	// gigabytes. Isolated nodes are legitimate, so, as in readScores, reject
	// only a count both large in absolute terms (≥ 2²⁴ nodes) and wildly
	// disproportionate to the edge lines.
	b.EnsureNodes(headerNodes)
	if n, edges := b.numNodes, b.NumPendingEdges(); n >= 1<<24 && n > 64*edges+1024 {
		return nil, fmt.Errorf("graph: %d nodes for %d edge lines", n, edges)
	}
	return b.Build()
}

// nodesHeader returns N from the "nodes=N" token of a comment line, or 0
// when the line has none.
func nodesHeader(comment string) (int, error) {
	for _, f := range strings.Fields(comment[1:]) {
		if s, ok := strings.CutPrefix(f, "nodes="); ok {
			n, err := strconv.ParseInt(s, 10, 32)
			if err != nil || n < 0 {
				return 0, fmt.Errorf("bad node count %q", f)
			}
			return int(n), nil
		}
	}
	return 0, nil
}

// WriteScores writes a per-node float map (significances, ranks, scores) as
// "<node>\t<value>" lines sorted by node id.
func WriteScores(w io.Writer, scores []float64) error {
	bw := bufio.NewWriter(w)
	for i, s := range scores {
		if _, err := fmt.Fprintf(bw, "%d\t%.12g\n", i, s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadScores parses the output of WriteScores. Node ids may appear in any
// order but must be dense in [0, n) for some n; missing ids default to 0.
func ReadScores(r io.Reader) ([]float64, error) {
	return readScores(r, -1)
}

// ReadScoresFor parses like ReadScores but rejects any node id ≥ numNodes.
// Callers that already know the graph size (the registry's .sig sidecar
// loader) get an exact allocation bound with no sparsity heuristic — a
// score file for an n-node graph can never demand more than n entries.
func ReadScoresFor(r io.Reader, numNodes int) ([]float64, error) {
	return readScores(r, numNodes)
}

// readScores implements ReadScores/ReadScoresFor; maxNodes < 0 means the
// graph size is unknown and the sparsity heuristic bounds the allocation.
func readScores(r io.Reader, maxNodes int) ([]float64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	type kv struct {
		id int
		v  float64
	}
	var items []kv
	maxID := -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("graph: scores line %d: want 2 fields, got %q", lineNo, line)
		}
		id, err := strconv.Atoi(fields[0])
		if err != nil || id < 0 {
			return nil, fmt.Errorf("graph: scores line %d: bad node id %q", lineNo, fields[0])
		}
		if maxNodes >= 0 && id >= maxNodes {
			return nil, fmt.Errorf("graph: scores line %d: node id %d out of range for %d nodes", lineNo, id, maxNodes)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("graph: scores line %d: bad value %q", lineNo, fields[1])
		}
		items = append(items, kv{id, v})
		if id > maxID {
			maxID = id
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: read scores: %w", err)
	}
	// The ids densify into [0, maxID]; a near-empty file naming one huge id
	// would otherwise allocate maxID*8 bytes (a one-line file can demand
	// gigabytes, or overflow make entirely). With a known graph size the
	// per-line bound above is exact; without one, sparse files are still
	// legitimate — missing ids default to 0 — so only reject when the id
	// space is both large in absolute terms (≥ 2²⁴ entries, 128 MiB) and
	// wildly disproportionate to the entry count. Compare maxID itself,
	// not maxID+1, which overflows for maxID == MaxInt64.
	if maxNodes < 0 && maxID >= 1<<24 && maxID > 64*len(items)+1024 {
		return nil, fmt.Errorf("graph: scores too sparse: max id %d for %d entries", maxID, len(items))
	}
	out := make([]float64, maxID+1)
	for _, it := range items {
		out[it.id] = it.v
	}
	return out, nil
}

// SortedEdges returns all logical edges of g sorted by (u, v) with u ≤ v for
// undirected graphs. Primarily a test/serialization helper.
func SortedEdges(g *Graph) []WeightedEdge {
	var out []WeightedEdge
	n := g.NumNodes()
	for u := int32(0); int(u) < n; u++ {
		lo, hi := g.offsets[u], g.offsets[u+1]
		for k := lo; k < hi; k++ {
			v := g.targets[k]
			if g.kind == Undirected && v < u {
				continue
			}
			out = append(out, WeightedEdge{U: u, V: v, W: g.ArcWeight(k)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}
