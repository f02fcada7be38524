package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"d2pr/internal/graph"
)

// Engine is the per-graph solver substrate, built once per graph and shared
// by both solvers (power iteration and the PPR push path). It is organized
// around memory locality:
//
//   - Pull CSR: arcs into each destination are contiguous (pullOffsets +
//     pullSources), so a sweep is a streaming pass over destinations with
//     one gather per in-arc — never a scattered write.
//   - Locality relabeling: nodes are renamed at build time with a hub-seeded
//     BFS order (see computeOrder), so the gather working set — dominated by
//     hub sources every row touches — is compacted into a low-id prefix of
//     the score vectors. All sweeps run in the permuted id space; ids are
//     translated only at the edges (teleport in, scores out), with reductions
//     ordered so results stay bit-identical to an unpermuted solve.
//   - Cache-blocked sweeps: the destination range is pre-cut into blocks of
//     ~sweepBlockArcs arcs. Parallel sweeps schedule whole blocks work-
//     stealing style (one atomic per block), which both bounds each grab's
//     working set and load-balances hub rows without a static partition.
//   - perm maps each forward-CSR arc to its pull position, so non-uniform
//     transition probabilities scatter into pull order in one pass per solve.
//
// The engine also owns the solve-time scratch: score/next/teleport/
// probability buffers are recycled through sync.Pools, so a warm solve
// allocates nothing proportional to the graph beyond the returned score
// vector, and the parallel sweep runs on a process-wide pool of persistent
// workers instead of spawning goroutines every iteration. Every solve
// borrows these buffers afresh; the engine keeps no reference to a
// transition it has solved.
//
// An Engine is immutable after construction and safe for concurrent use.
type Engine struct {
	g *graph.Graph
	n int

	// buildTime is the full construction cost (transpose + relabeling + block
	// layout) a cold graph pays before its first solve; reorderTime is the
	// slice spent computing the locality order. Both are surfaced through
	// /v1/{graph}/info and telemetry so "first request on a graph is slow"
	// is attributable.
	buildTime   time.Duration
	reorderTime time.Duration

	// Locality relabeling: permOf[orig] = permuted id, origOf[permuted] =
	// orig id. Both are nil when the computed order is the identity, and
	// every translation site treats nil as "no translation".
	permOf []int32
	origOf []int32

	// Pull topology in permuted id space: arcs into permuted destination v
	// are pull positions pullOffsets[v]..pullOffsets[v+1], pullSources[pos]
	// is the (permuted) origin, and perm[k] is the pull position of forward-
	// CSR arc k. Within each destination row, arcs keep the original
	// source-scan order, so per-row accumulation is bit-identical to an
	// unpermuted engine's.
	pullOffsets []int64
	pullSources []int32
	perm        []int64

	// dangling holds the permuted ids of out-degree-0 nodes, listed in
	// original-id order so the dangling-mass reduction is bit-identical to
	// the unpermuted solve.
	dangling []int32

	// invOut[u] = 1/outdeg(u) in ORIGINAL id space (0 for dangling nodes) —
	// the implicit uniform transition for callers that walk the forward
	// graph (the PPR push path). invOutP is the same table in permuted
	// space, used by the power sweep; it aliases invOut when the
	// relabeling is the identity.
	invOut  []float64
	invOutP []float64

	// blocks are the destination block boundaries of the blocked sweep
	// schedule: each block covers ~sweepBlockArcs in-arcs.
	blocks []int32

	nbuf sync.Pool // *[]float64 of length n
	mbuf sync.Pool // *[]float64 of length NumArcs (pull-ordered probabilities)

	// pprbuf recycles *pprScratch (residuals, queue, membership bits) across
	// SolvePPR calls; see push.go.
	pprbuf sync.Pool

	// connOnce/conn lazily cache the graph's connection-strength transition
	// (= Uniform for unweighted graphs), so per-seed PPR requests never
	// rebuild the O(arcs) probability array.
	connOnce sync.Once
	conn     *Transition
}

// sweepBlockArcs is the target in-arc count per destination block: 8k arcs
// ≈ 64 KiB of pull-ordered probabilities plus the block's score slice, small
// enough that one block's streams live in L1/L2, large enough that the
// per-block atomic fetch is noise. It also sets the parallel work-stealing
// granularity (a 240k-arc graph yields ~30 blocks).
const sweepBlockArcs = 8192

// NewEngine builds the pull topology for g, including the locality
// relabeling. Prefer EngineFor, which caches engines per graph; NewEngine
// exists for callers that manage the lifetime themselves.
func NewEngine(g *graph.Graph) *Engine {
	return buildEngine(g, true)
}

// newEngineIdentity builds an engine with the identity node order — the
// ablation baseline the reordering invariant tests and benches compare
// against.
func newEngineIdentity(g *graph.Graph) *Engine {
	return buildEngine(g, false)
}

func buildEngine(g *graph.Graph, reorder bool) *Engine {
	buildStart := time.Now()
	n := g.NumNodes()
	m := g.NumArcs()
	e := &Engine{
		g:           g,
		n:           n,
		pullOffsets: make([]int64, n+1),
		pullSources: make([]int32, m),
		perm:        make([]int64, m),
		invOut:      make([]float64, n),
	}
	if reorder {
		reorderStart := time.Now()
		e.origOf = computeOrder(g)
		if e.origOf != nil {
			e.permOf = make([]int32, n)
			for p, orig := range e.origOf {
				e.permOf[orig] = int32(p)
			}
		}
		e.reorderTime = time.Since(reorderStart)
	}

	permOf := e.permOf
	for u := int32(0); int(u) < n; u++ {
		lo, hi := g.ArcRange(u)
		if lo == hi {
			pu := u
			if permOf != nil {
				pu = permOf[u]
			}
			e.dangling = append(e.dangling, pu)
			continue
		}
		e.invOut[u] = 1 / float64(hi-lo)
		for k := lo; k < hi; k++ {
			pv := g.ArcTarget(k)
			if permOf != nil {
				pv = permOf[pv]
			}
			e.pullOffsets[pv+1]++
		}
	}
	for v := 0; v < n; v++ {
		e.pullOffsets[v+1] += e.pullOffsets[v]
	}
	cursor := make([]int64, n)
	copy(cursor, e.pullOffsets[:n])
	// Sources are scanned in original id order, so each destination row
	// lists its in-arcs in the same sequence as an unpermuted engine —
	// the per-row accumulation stays bit-identical under relabeling.
	for u := int32(0); int(u) < n; u++ {
		lo, hi := g.ArcRange(u)
		pu := u
		if permOf != nil {
			pu = permOf[u]
		}
		for k := lo; k < hi; k++ {
			pv := g.ArcTarget(k)
			if permOf != nil {
				pv = permOf[pv]
			}
			pos := cursor[pv]
			cursor[pv]++
			e.pullSources[pos] = pu
			e.perm[k] = pos
		}
	}
	if permOf == nil {
		e.invOutP = e.invOut
	} else {
		e.invOutP = make([]float64, n)
		for u := 0; u < n; u++ {
			e.invOutP[permOf[u]] = e.invOut[u]
		}
	}
	e.blocks = blockBounds(e.pullOffsets, n)
	e.buildTime = time.Since(buildStart)
	return e
}

// blockBounds cuts [0, n) into destination blocks of ~sweepBlockArcs in-arcs
// (each destination also counts 1, so arc-free stretches still split).
func blockBounds(offsets []int64, n int) []int32 {
	bounds := make([]int32, 1, n/64+2)
	var w int64
	for v := 0; v < n; v++ {
		w += offsets[v+1] - offsets[v] + 1
		if w >= sweepBlockArcs {
			bounds = append(bounds, int32(v+1))
			w = 0
		}
	}
	if bounds[len(bounds)-1] != int32(n) {
		bounds = append(bounds, int32(n))
	}
	return bounds
}

// Graph returns the graph the engine was built for.
func (e *Engine) Graph() *graph.Graph { return e.g }

// EngineStats describes the engine's memory layout and one-off build costs —
// the operator-facing answer to "which layout is this graph serving, and
// what did it cost to build".
type EngineStats struct {
	Nodes int `json:"nodes"`
	Arcs  int `json:"arcs"`
	// Layout names the topology layout the sweeps run on.
	Layout string `json:"layout"`
	// Reordered reports whether the locality relabeling is active (false
	// when the computed order was the identity).
	Reordered bool `json:"reordered"`
	// Blocks is the number of destination blocks of the blocked sweep
	// schedule; BlockTargetArcs the per-block arc budget.
	Blocks          int `json:"blocks"`
	BlockTargetArcs int `json:"block_target_arcs"`
	// BuildTime is the total engine construction time; ReorderTime the
	// slice spent computing the locality order.
	BuildTime   time.Duration `json:"-"`
	ReorderTime time.Duration `json:"-"`
	// BuildMs/ReorderMs are the JSON-facing millisecond forms.
	BuildMs   float64 `json:"build_ms"`
	ReorderMs float64 `json:"reorder_ms"`
}

// Stats returns the engine's layout and build statistics.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Nodes:           e.n,
		Arcs:            len(e.pullSources),
		Layout:          "pull-csr/blocked",
		Reordered:       e.origOf != nil,
		Blocks:          len(e.blocks) - 1,
		BlockTargetArcs: sweepBlockArcs,
		BuildTime:       e.buildTime,
		ReorderTime:     e.reorderTime,
		BuildMs:         float64(e.buildTime) / 1e6,
		ReorderMs:       float64(e.reorderTime) / 1e6,
	}
}

// Connection returns the engine's cached connection-strength transition —
// conventional (weighted) PageRank's transition, the one per-seed PPR serves.
// For unweighted graphs it is the implicit Uniform transition and costs
// nothing; for weighted graphs the per-arc array is built once per engine.
func (e *Engine) Connection() *Transition {
	e.connOnce.Do(func() { e.conn = ConnectionStrength(e.g) })
	return e.conn
}

// engineCacheCap bounds the process-wide engine cache. Serving deployments
// own their engines through registry snapshots (built with NewEngine, so an
// engine dies with its snapshot); the global cache covers library callers
// (Solve) without pinning every graph a test run ever builds.
const engineCacheCap = 16

var (
	engineMu    sync.Mutex
	engineCache []*Engine // most-recently-used first
)

// EngineFor returns the cached engine for g, building one on first use.
// Identity is pointer identity on the graph — graphs are immutable, so one
// *graph.Graph has one topology. The cache keeps the engineCacheCap
// most-recently-used engines, and with them their graphs; long-lived callers
// that must never rebuild, or whose graphs must be freed with them, own an
// engine from NewEngine instead (the registry's snapshots do).
func EngineFor(g *graph.Graph) *Engine {
	engineMu.Lock()
	for i, e := range engineCache {
		if e.g == g {
			copy(engineCache[1:i+1], engineCache[:i])
			engineCache[0] = e
			engineMu.Unlock()
			return e
		}
	}
	engineMu.Unlock()
	// Build outside the lock: the transpose is O(m) and must not serialize
	// unrelated solves. Two racing builders may both build; one wins the
	// cache slot and the loser's engine still works.
	e := NewEngine(g)
	engineMu.Lock()
	defer engineMu.Unlock()
	for i, cached := range engineCache {
		if cached.g == g {
			copy(engineCache[1:i+1], engineCache[:i])
			engineCache[0] = cached
			return cached
		}
	}
	engineCache = append(engineCache, nil)
	copy(engineCache[1:], engineCache)
	engineCache[0] = e
	if len(engineCache) > engineCacheCap {
		engineCache[engineCacheCap] = nil // release the evicted engine
		engineCache = engineCache[:engineCacheCap]
	}
	return e
}

// Solve runs power iteration for t over the cached topology. t must be a
// transition over the engine's graph. Uniform transitions take the implicit
// 1/outdeg path: no per-arc probability array is read, written, or allocated.
func (e *Engine) Solve(t *Transition, opts Options) (*Result, error) {
	return e.SolveContext(context.Background(), t, opts)
}

// SolveContext is Solve with cancellation: ctx is checked once per iteration
// (between sweep barriers on the parallel path), and a cancelled or expired
// context aborts the solve with the context's error wrapped in iteration
// progress. The serving layer routes every interactive solve through this so
// a disconnected client or an expired request deadline stops burning cores
// within one iteration.
func (e *Engine) SolveContext(ctx context.Context, t *Transition, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if t.g != e.g {
		return nil, fmt.Errorf("core: transition over %v does not match engine graph %v", t.g, e.g)
	}
	if e.n == 0 {
		return nil, ErrEmptyGraph
	}
	opts, err := opts.withDefaults(e.n)
	if err != nil {
		return nil, err
	}
	f := e.flowOf(t)
	res, err := powerSolve(ctx, e, f.probs, f.rowFactor, f.srcScale, opts)
	f.release(e)
	return res, err
}

// flow is the solver-facing representation of a transition, in the engine's
// permuted id space. Exactly one shape is populated:
//
//   - all nil: the implicit uniform transition (the cached 1/outdeg table),
//   - rowFactor+srcScale: a rank-1 factored transition (D2PR) — per-node
//     tables, no per-arc data at all,
//   - probs: per-arc probabilities in pull order.
type flow struct {
	probs     []float64
	rowFactor []float64
	srcScale  []float64
	// The pooled buffers backing probs or rowFactor+srcScale, nil when the
	// flow reads the transition's own tables; release returns them.
	probsBuf, rowFactorBuf, srcScaleBuf *[]float64
}

// flowOf returns t's flow representation, borrowing pooled buffers that the
// caller must hand back with release after the solve. A factored transition
// costs at most one O(n) permuted copy per solve (nothing at all on an
// identity-ordered engine); a per-arc transition costs an O(arcs) scatter
// into pull order, on top of the O(arcs) stream every iteration reads.
func (e *Engine) flowOf(t *Transition) flow {
	switch {
	case t.uniform:
		return flow{}
	case t.rowFactor != nil && e.permOf == nil:
		return flow{rowFactor: t.rowFactor, srcScale: t.srcScale}
	case t.rowFactor != nil:
		rfp, ssp := e.getN(), e.getN()
		e.permuteFactors(*rfp, *ssp, t)
		return flow{rowFactor: *rfp, srcScale: *ssp, rowFactorBuf: rfp, srcScaleBuf: ssp}
	}
	pp := e.getM()
	e.scatterFlow(*pp, t.arcProbs())
	return flow{probs: *pp, probsBuf: pp}
}

// release returns the pooled buffers f borrowed from e.
func (f flow) release(e *Engine) {
	if f.probsBuf != nil {
		e.putM(f.probsBuf)
	}
	if f.rowFactorBuf != nil {
		e.putN(f.rowFactorBuf)
		e.putN(f.srcScaleBuf)
	}
}

// permuteFactors copies t's factored tables into the engine's permuted id
// space. Only called on relabeled engines.
func (e *Engine) permuteFactors(rf, ss []float64, t *Transition) {
	for v, pv := range e.permOf {
		rf[pv] = t.rowFactor[v]
		ss[pv] = t.srcScale[v]
	}
}

// scatterFlow scatters forward-CSR-ordered probabilities into pull order.
func (e *Engine) scatterFlow(dst, src []float64) {
	for k, pos := range e.perm {
		dst[pos] = src[k]
	}
}

// getN returns a pooled length-n float64 buffer (contents unspecified).
func (e *Engine) getN() *[]float64 {
	if p, ok := e.nbuf.Get().(*[]float64); ok {
		return p
	}
	s := make([]float64, e.n)
	return &s
}

func (e *Engine) putN(p *[]float64) { e.nbuf.Put(p) }

// getM returns a pooled length-NumArcs float64 buffer (contents unspecified).
func (e *Engine) getM() *[]float64 {
	if p, ok := e.mbuf.Get().(*[]float64); ok {
		return p
	}
	s := make([]float64, len(e.pullSources))
	return &s
}

func (e *Engine) putM(p *[]float64) { e.mbuf.Put(p) }

// powerSolve is the power-iteration core. opts must already have defaults
// applied. probs holds the transition in pull order; with probs nil the
// transition is per-node: rank-1 factored when rowFactor/srcScale (permuted
// space) are set, the implicit uniform one otherwise.
//
// ctx is polled once per iteration, before the sweep — on the parallel path
// that is the point right after the previous iteration's block barrier, so
// no worker is ever abandoned mid-block. The check is one atomic-free
// ctx.Err() call against an iteration that sweeps every arc; its cost on the
// warm path is measured by BenchmarkCoreSolveCancelOverhead (<1%).
func powerSolve(ctx context.Context, e *Engine, probs, rowFactor, srcScale []float64, opts Options) (*Result, error) {
	n := e.n
	telep := e.getN()
	tele := *telep
	teleportPermuted(opts, tele, e.permOf)

	curp := e.getN()
	cur := *curp
	copy(cur, tele)
	nextp := e.getN()
	next := *nextp

	if srcScale == nil {
		srcScale = e.invOutP
	}
	// The per-node paths keep a scaled mirror (scaled[u] = cur[u]·srcScale[u])
	// so the sweep reads one value per arc instead of two. It is primed once
	// here; afterwards the sweep epilogue maintains the next iteration's
	// mirror in nextScaled, and the pair ping-pongs with cur/next.
	var scaled, nextScaled []float64
	var scaledp, nextScaledp *[]float64
	if probs == nil {
		scaledp, nextScaledp = e.getN(), e.getN()
		scaled, nextScaled = *scaledp, *nextScaledp
		for u := 0; u < n; u++ {
			scaled[u] = cur[u] * srcScale[u]
		}
	}

	// Block bounds double as the residual-reduction grouping: per-block
	// partials are reduced in block order, so the residual is deterministic.
	// The serial path walks the same blocks the parallel workers grab, making
	// serial and parallel solves bit-identical end to end.
	bounds := e.blocks
	diffs := make([]float64, len(bounds)-1)
	var st *sweepState
	if workers := min(opts.Workers, len(diffs)); workers > 1 {
		st = &sweepState{
			e: e, probs: probs, tele: tele, rowFactor: rowFactor, srcScale: srcScale,
			alpha: opts.Alpha, workers: workers, diffs: diffs,
		}
	}

	res := &Result{}
	solveStart := time.Now()
	var cancelErr error
	for iter := 1; iter <= opts.MaxIter; iter++ {
		if err := ctx.Err(); err != nil {
			cancelErr = fmt.Errorf("core: solve aborted after %d/%d iterations: %w", res.Iterations, opts.MaxIter, err)
			break
		}
		// Mass on dangling nodes flows back through the teleport
		// distribution, keeping the chain stochastic.
		var dangling float64
		for _, d := range e.dangling {
			dangling += cur[d]
		}
		base := opts.Alpha * dangling // multiplied by tele[v] per node

		if st != nil {
			st.cur, st.next = cur, next
			st.scaled, st.nextScaled = scaled, nextScaled
			st.base = base
			st.run()
		} else {
			for b := range diffs {
				diffs[b] = sweepRows(e.pullOffsets, e.pullSources, probs, cur, scaled, next, nextScaled, tele,
					rowFactor, srcScale, opts.Alpha, base, int(bounds[b]), int(bounds[b+1]))
			}
		}
		var diff float64
		for _, d := range diffs {
			diff += d
		}

		cur, next = next, cur
		scaled, nextScaled = nextScaled, scaled
		res.Iterations = iter
		res.Residual = diff
		if diff < opts.Tol {
			res.Converged = true
			break
		}
	}
	res.Elapsed = time.Since(solveStart)
	if cancelErr == nil {
		// Exact renormalization guards against drift over hundreds of
		// iterations; materialization also translates back to original ids.
		res.Scores = materializeScores(cur, e.permOf)
	}
	// The buffer pairs may have swapped an odd number of times; all are
	// pooled either way, only the materialized result escapes.
	*curp = cur
	*nextp = next
	e.putN(curp)
	e.putN(nextp)
	e.putN(telep)
	if scaledp != nil {
		*scaledp = scaled
		*nextScaledp = nextScaled
		e.putN(scaledp)
		e.putN(nextScaledp)
	}
	if cancelErr != nil {
		return nil, cancelErr
	}
	return res, nil
}

// sweepState carries one parallel sweep's inputs to the worker pool. One
// sweepState lives for a whole solve; only the buffer pairs and the dangling
// base change between iterations. Workers grab whole destination blocks
// (e.blocks) work-stealing style, one atomic per block, and each block's
// residual partial lands in diffs at the block's own index, so the reduction
// order is independent of which worker computed which block.
type sweepState struct {
	e                                   *Engine
	probs                               []float64
	cur, next, scaled, nextScaled, tele []float64
	rowFactor, srcScale                 []float64
	alpha, base                         float64
	workers                             int
	diffs                               []float64
	cursor                              atomic.Int64
	wg                                  sync.WaitGroup
}

// run executes one sweep. The calling goroutine always works too (one fewer
// handoff, and it would only block in Wait anyway); extra workers come from
// the persistent pool. Every destination row is computed by exactly one
// worker and rows are reduced independently, so results are identical across
// worker counts.
func (st *sweepState) run() {
	st.cursor.Store(0)
	st.wg.Add(st.workers)
	for w := 1; w < st.workers; w++ {
		sweepPool.submit(st)
	}
	st.runBlocks()
	st.wg.Wait()
}

// runBlocks loops grabbing blocks until none remain.
func (st *sweepState) runBlocks() {
	e := st.e
	nb := int64(len(st.diffs))
	for {
		b := st.cursor.Add(1) - 1
		if b >= nb {
			break
		}
		st.diffs[b] = sweepRows(e.pullOffsets, e.pullSources, st.probs, st.cur, st.scaled, st.next, st.nextScaled, st.tele,
			st.rowFactor, st.srcScale, st.alpha, st.base, int(e.blocks[b]), int(e.blocks[b+1]))
	}
	st.wg.Done()
}

// workerPool runs sweep worker slots on persistent goroutines. Workers are
// spawned on demand up to the pool's cap and exit after workerIdleTimeout
// without a task, so an idle process keeps no goroutines and a server under
// load keeps them hot across iterations, solves, and requests.
type workerPool struct {
	tasks chan *sweepState // unbuffered: a send succeeds only into a waiting worker
	sem   chan struct{}    // counts live workers
}

const workerIdleTimeout = 30 * time.Second

// sweepPool is the process-wide pool shared by every engine. Its cap bounds
// total sweep parallelism across concurrent solves; one worker slot of each
// sweep runs on the submitting goroutine, so a single solve still uses
// opts.Workers cores when the pool is otherwise idle.
var sweepPool = newWorkerPool(64)

func newWorkerPool(maxWorkers int) *workerPool {
	return &workerPool{
		tasks: make(chan *sweepState),
		sem:   make(chan struct{}, maxWorkers),
	}
}

func (p *workerPool) submit(st *sweepState) {
	select {
	case p.tasks <- st: // an idle worker is waiting
		return
	default:
	}
	select {
	case p.tasks <- st:
	case p.sem <- struct{}{}:
		go p.worker(st)
	}
}

func (p *workerPool) worker(st *sweepState) {
	st.runBlocks()
	idle := time.NewTimer(workerIdleTimeout)
	defer idle.Stop()
	for {
		select {
		case st := <-p.tasks:
			if !idle.Stop() {
				<-idle.C
			}
			st.runBlocks()
			idle.Reset(workerIdleTimeout)
		case <-idle.C:
			<-p.sem
			return
		}
	}
}
