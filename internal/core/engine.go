package core

import (
	"context"
	"fmt"
	"math"
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
// probability buffers (float64 and float32 tiers) are recycled through
// sync.Pools, so a warm solve allocates nothing proportional to the graph
// beyond the returned score vector, and the parallel sweep runs on a
// process-wide pool of persistent workers instead of spawning goroutines
// every iteration. Every solve borrows these buffers afresh; the engine keeps
// no reference to a transition it has solved.
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

	nbuf   sync.Pool // *[]float64 of length n
	nbuf32 sync.Pool // *[]float32 of length n
	mbuf   sync.Pool // *[]float64 of length NumArcs (pull-ordered probabilities)
	mbuf32 sync.Pool // *[]float32 of length NumArcs

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
	if opts.Float32 {
		f = e.fitFloat32(f, t, opts.Alpha)
	}
	res, err := e.power(ctx, f, opts)
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
		rfp, ssp := getNT[float64](e), getNT[float64](e)
		e.permuteFactors(*rfp, *ssp, t)
		return flow{rowFactor: *rfp, srcScale: *ssp, rowFactorBuf: rfp, srcScaleBuf: ssp}
	}
	return e.arcFlow(t)
}

// arcFlow returns t's per-arc probabilities scattered into a pooled
// pull-order buffer.
func (e *Engine) arcFlow(t *Transition) flow {
	pp := e.getM()
	e.scatterFlow(*pp, t.arcProbs())
	return flow{probs: *pp, probsBuf: pp}
}

// minNormal32 is float32's smallest normal number, 2⁻¹²⁶.
const minNormal32 = 0x1p-126

// fitFloat32 adapts a flow to the float32 tier, whose factored sweep stores
// the mirror cur[u]·srcScale[u] in float32. At large |p| the factor sums
// leave float32's range: the mirror overflows to +Inf (and the sweep to NaN)
// or flushes to 0, dropping the walk mass. A factored flow whose mirror fits
// is returned as is; one that fits after scaling srcScale by 2^k and
// rowFactor by 2^−k is returned scaled (powers of two scale exactly, so the
// per-arc products are unchanged); any other falls back to the per-arc
// probabilities, which float32 holds at every p. f's buffers are released
// when it is replaced.
func (e *Engine) fitFloat32(f flow, t *Transition, alpha float64) flow {
	if f.rowFactor == nil {
		return f
	}
	// Every iterate is at least (1−α)·tele, so (1−α)/n bounds the scores
	// of a uniform teleport from below; smaller personalized scores carry
	// too little mass for a subnormal mirror to matter.
	k, ok := mirrorShift32(f.srcScale, (1-alpha)/float64(e.n))
	switch {
	case !ok:
		f.release(e)
		return e.arcFlow(t)
	case k == 0:
		return f
	}
	rfp, ssp := getNT[float64](e), getNT[float64](e)
	rf, ss := *rfp, *ssp
	up, down := math.Ldexp(1, k), math.Ldexp(1, -k)
	for i := range rf {
		rf[i] = f.rowFactor[i] * down
		ss[i] = f.srcScale[i] * up
	}
	f.release(e)
	return flow{rowFactor: rf, srcScale: ss, rowFactorBuf: rfp, srcScaleBuf: ssp}
}

// mirrorShift32 returns the exponent k for which every mirror
// cur·srcScale[u]·2^k with cur in [lo, 1] lies in float32's normal range:
// 0 when the unscaled mirror already does, and ok = false when srcScale
// spreads too wide for any k.
func mirrorShift32(srcScale []float64, lo float64) (k int, ok bool) {
	smin, smax := math.Inf(1), 0.0
	for _, s := range srcScale {
		if s > 0 {
			smin, smax = min(smin, s), max(smax, s)
		}
	}
	if smax == 0 || (smax <= math.MaxFloat32 && lo*smin >= minNormal32) {
		return 0, true
	}
	// Put the largest mirror just below 2¹²⁶, two binades under float32's
	// overflow, which leaves the widest room below it.
	_, exp := math.Frexp(smax) // smax·2^−exp lies in [0.5, 1)
	k = 126 - exp
	return k, math.Ldexp(lo*smin, k) >= minNormal32
}

// release returns the pooled buffers f borrowed from e.
func (f flow) release(e *Engine) {
	if f.probsBuf != nil {
		e.putM(f.probsBuf)
	}
	if f.rowFactorBuf != nil {
		putNT(e, f.rowFactorBuf)
		putNT(e, f.srcScaleBuf)
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

// Pool plumbing. The n-sized pools exist per tier; npoolOf picks by the
// kernel's element type.
func npoolOf[T float32or64](e *Engine) *sync.Pool {
	var z T
	if _, ok := any(z).(float32); ok {
		return &e.nbuf32
	}
	return &e.nbuf
}

// getNT returns a pooled length-n buffer of the tier's element type
// (contents unspecified).
func getNT[T float32or64](e *Engine) *[]T {
	if p, ok := npoolOf[T](e).Get().(*[]T); ok {
		return p
	}
	s := make([]T, e.n)
	return &s
}

func putNT[T float32or64](e *Engine, p *[]T) { npoolOf[T](e).Put(p) }

// getM returns a pooled length-NumArcs float64 buffer (contents unspecified).
func (e *Engine) getM() *[]float64 {
	if p, ok := e.mbuf.Get().(*[]float64); ok {
		return p
	}
	s := make([]float64, len(e.pullSources))
	return &s
}

func (e *Engine) putM(p *[]float64) { e.mbuf.Put(p) }

func (e *Engine) getM32() *[]float32 {
	if p, ok := e.mbuf32.Get().(*[]float32); ok {
		return p
	}
	s := make([]float32, len(e.pullSources))
	return &s
}

func (e *Engine) putM32(p *[]float32) { e.mbuf32.Put(p) }

// power runs the power-iteration core over a flow representation,
// dispatching to the tier selected by opts.Float32. opts must already have
// defaults applied. The factored tables stay float64 in both tiers — they
// are per-node, so narrowing them would save nothing that matters.
func (e *Engine) power(ctx context.Context, f flow, opts Options) (*Result, error) {
	if !opts.Float32 {
		return powerSolve[float64](ctx, e, f.probs, f.rowFactor, f.srcScale, opts)
	}
	var p32 []float32
	var pp32 *[]float32
	if f.probs != nil {
		pp32 = e.getM32()
		p32 = *pp32
		for i, v := range f.probs {
			p32[i] = float32(v)
		}
	}
	res, err := powerSolve[float32](ctx, e, p32, f.rowFactor, f.srcScale, opts)
	if pp32 != nil {
		e.putM32(pp32)
	}
	return res, err
}

// powerSolve is the tier-generic power-iteration core. probs holds the
// transition in pull order; with probs nil the transition is per-node:
// rank-1 factored when rowFactor/srcScale (permuted space) are set, the
// implicit uniform one otherwise.
//
// ctx is polled once per iteration, before the sweep — on the parallel path
// that is the point right after the previous iteration's block barrier, so
// no worker is ever abandoned mid-block. The check is one atomic-free
// ctx.Err() call against an iteration that sweeps every arc; its cost on the
// warm path is measured by BenchmarkCoreSolveCancelOverhead (<1%).
func powerSolve[T float32or64](ctx context.Context, e *Engine, probs []T, rowFactor, srcScale []float64, opts Options) (*Result, error) {
	n := e.n
	telep := getNT[T](e)
	tele := *telep
	teleportPermuted(opts, tele, e.permOf)

	curp := getNT[T](e)
	cur := *curp
	copy(cur, tele)
	nextp := getNT[T](e)
	next := *nextp

	if srcScale == nil {
		srcScale = e.invOutP
	}
	// The per-node paths keep a scaled mirror (scaled[u] = cur[u]·srcScale[u])
	// so the sweep reads one value per arc instead of two. It is primed once
	// here; afterwards the sweep epilogue maintains the next iteration's
	// mirror in nextScaled, and the pair ping-pongs with cur/next.
	var scaled, nextScaled []T
	var scaledp, nextScaledp *[]T
	if probs == nil {
		scaledp, nextScaledp = getNT[T](e), getNT[T](e)
		scaled, nextScaled = *scaledp, *nextScaledp
		for u := 0; u < n; u++ {
			scaled[u] = T(float64(cur[u]) * srcScale[u])
		}
	}

	// Block bounds double as the residual-reduction grouping: per-block
	// partials are reduced in block order, so the residual is deterministic.
	// The serial path walks the same blocks the parallel workers grab, making
	// serial and parallel solves bit-identical end to end.
	bounds := e.blocks
	diffs := make([]float64, len(bounds)-1)
	var st *sweepState[T]
	if workers := min(opts.Workers, len(diffs)); workers > 1 {
		st = &sweepState[T]{
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
			dangling += float64(cur[d])
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
	putNT(e, curp)
	putNT(e, nextp)
	putNT(e, telep)
	if scaledp != nil {
		*scaledp = scaled
		*nextScaledp = nextScaled
		putNT(e, scaledp)
		putNT(e, nextScaledp)
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
type sweepState[T float32or64] struct {
	e                                   *Engine
	probs                               []T
	cur, next, scaled, nextScaled, tele []T
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
func (st *sweepState[T]) run() {
	st.cursor.Store(0)
	st.wg.Add(st.workers)
	for w := 1; w < st.workers; w++ {
		sweepPool.submit(st)
	}
	st.runBlocks()
	st.wg.Wait()
}

// runBlocks loops grabbing blocks until none remain.
func (st *sweepState[T]) runBlocks() {
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

// blockRunner is the unit of work the pool executes: one worker slot of one
// sweep. Both sweep tiers implement it, so one pool serves float64 and
// float32 solves alike, and submitting allocates nothing — the interface word
// holds the *sweepState pointer directly.
type blockRunner interface {
	runBlocks()
}

// workerPool runs sweep worker slots on persistent goroutines. Workers are
// spawned on demand up to the pool's cap and exit after workerIdleTimeout
// without a task, so an idle process keeps no goroutines and a server under
// load keeps them hot across iterations, solves, and requests.
type workerPool struct {
	tasks chan blockRunner // unbuffered: a send succeeds only into a waiting worker
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
		tasks: make(chan blockRunner),
		sem:   make(chan struct{}, maxWorkers),
	}
}

func (p *workerPool) submit(t blockRunner) {
	select {
	case p.tasks <- t: // an idle worker is waiting
		return
	default:
	}
	select {
	case p.tasks <- t:
	case p.sem <- struct{}{}:
		go p.worker(t)
	}
}

func (p *workerPool) worker(t blockRunner) {
	t.runBlocks()
	idle := time.NewTimer(workerIdleTimeout)
	defer idle.Stop()
	for {
		select {
		case t := <-p.tasks:
			if !idle.Stop() {
				<-idle.C
			}
			t.runBlocks()
			idle.Reset(workerIdleTimeout)
		case <-idle.C:
			<-p.sem
			return
		}
	}
}
