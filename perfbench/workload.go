package main

import (
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"runtime"
	"strconv"
	"sync"

	"d2pr/internal/dataset"
	"d2pr/internal/graph"
	"d2pr/internal/registry"
)

// workload is one traffic mix. A run sets the server up, warms it, then
// sends whole rounds of the workload's requests; the number of rounds is
// fixed by --seconds and the round's nominal length, so two commits always
// do the same work and only its speed differs.
type workload interface {
	// setup builds a ready server from scratch. Everything it does counts
	// as setup_s: graph materialization, engine builds, cache warming.
	setup() (*env, error)
	// warm sends the untimed warm-up requests and checks their answers.
	warm(e *env) error
	// roundSeconds is a round's nominal length on the reference host;
	// perRound the number of requests in a round.
	roundSeconds() float64
	perRound() int
	// round returns round r's requests. Rounds are asked for in order.
	round(r int) []*request
	// observe checks one timed answer. It returns how many of the request's
	// operations failed, and an error when an answer is wrong.
	observe(e *env, q *request, status int, body []byte) (int, error)
	// check runs the oracle checks on the answers observe kept; what it
	// measured on the way goes to log.
	check(e *env, log io.Writer) error
	// replay repeats, each in its own span under parent, the layer calls
	// the request made (traced runs only).
	replay(e *env, t *tracer, q *request, parent int)
	// transitionCount is the number of distinct transitions among the rank
	// configurations sent to the measured server.
	transitionCount() int
}

// request is one request of a round.
type request struct {
	req   *http.Request
	graph string
	// ops is the number of operations the request carries: the
	// configurations of a batch, 1 otherwise.
	ops int
	// kind groups the requests that cost the same up to noise: the same
	// route, graph and parameters up to a round's offset. latency_p50_ms
	// takes the median of each kind (kindMedian).
	kind int
	// Parameters the checks and the replay need.
	p, beta float64
	seed    int32
	key     int
	sweep   *sweepBody
}

// sizes scales a run. The self-test runs every workload at tinySize.
type sizes struct {
	scale      float64 // paper graph scale
	largeNodes int     // nodes of the large-solve graph
	largeK     int     // arcs per arriving node of the large-solve graph
	setups     int     // set-ups per run; setup_s is their median
}

var (
	fullSize = sizes{scale: 1, largeNodes: 300_000, largeK: 5, setups: 5}
	tinySize = sizes{scale: 0.02, largeNodes: 2_000, largeK: 5, setups: 2}
)

// The paper graphs are registered as d2pr-server -datasets does, at the
// generator's defaults.
const (
	paperSeed  = 42
	largeSeed  = 42
	largeGraph = "barabasi-albert"
)

func workloadNames() []string {
	return []string{"paper-sweep", "hot-read", "ppr-cold", "large-solve"}
}

func newWorkload(name string, seed uint64, size sizes) (workload, error) {
	b := &base{size: size, rng: rand.New(rand.NewPCG(seed, 0x0d2b))}
	switch name {
	case "paper-sweep":
		return newPaperSweep(b), nil
	case "hot-read":
		return &hotRead{base: b}, nil
	case "ppr-cold":
		return &pprCold{base: b}, nil
	case "large-solve":
		return newLargeSolve(b), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// base holds what every workload shares: the seeded input stream, the
// oracle's graph copies, and the rank configurations sent to the server.
type base struct {
	size sizes
	rng  *rand.Rand

	mu     sync.Mutex
	copies map[*graph.Graph]*oGraph
	// transitions counts the distinct transitions among the rank
	// configurations sent to the measured server, per graph.
	transitions map[string]bool
}

// paperEnv sets up the server over the eight paper graphs.
func (b *base) paperEnv() (*env, error) {
	reg := registry.New()
	if err := reg.AddAllDatasets(dataset.Config{Scale: b.size.scale, Seed: paperSeed}); err != nil {
		return nil, err
	}
	return newEnv(reg)
}

// oracle returns the oracle's copy of a graph, made once.
func (b *base) oracle(g *graph.Graph) *oGraph {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.copies == nil {
		b.copies = map[*graph.Graph]*oGraph{}
	}
	og, ok := b.copies[g]
	if !ok {
		og = copyGraph(g)
		b.copies[g] = og
	}
	return og
}

// noteConfig records one rank configuration sent to the server, keyed by
// the transition it solves: β = 1 ignores p, and p = 0 at β = 0 (or at any
// β on an unweighted graph) is the uniform walk.
func (b *base) noteConfig(graphName string, weighted bool, p, beta float64) {
	key := strconv.FormatFloat(p, 'g', -1, 64) + "/" + strconv.FormatFloat(beta, 'g', -1, 64)
	switch {
	case beta == 1 && weighted:
		key = "connection"
	case beta == 1 || (p == 0 && (beta == 0 || !weighted)):
		key = "uniform"
	}
	if b.transitions == nil {
		b.transitions = map[string]bool{}
	}
	b.transitions[graphName+"|"+key] = true
}

func (b *base) transitionCount() int { return len(b.transitions) }

// fmtF formats a parameter for a query string, exactly.
func fmtF(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// giantComponent returns the nodes of g's largest weakly connected
// component, in id order.
func giantComponent(g *graph.Graph) []int32 {
	comp, count := graph.ConnectedComponents(g)
	sizes := make([]int, count)
	for _, c := range comp {
		sizes[c]++
	}
	best := 0
	for c := range sizes {
		if sizes[c] > sizes[best] {
			best = c
		}
	}
	out := make([]int32, 0, sizes[best])
	for u, c := range comp {
		if int(c) == best {
			out = append(out, int32(u))
		}
	}
	return out
}

// parallel runs f(0..n-1) on GOMAXPROCS workers and returns the first
// error in index order.
func parallel(n int, f func(i int) error) error {
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
