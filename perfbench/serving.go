package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"predication/internal/bench"
	"predication/internal/core"
	"predication/internal/experiments"
	"predication/internal/machine"
	"predication/internal/obs"
	"predication/internal/serve"
	"predication/internal/sim"
)

const (
	// serveClients is the closed loop's client count: at most the host's
	// two CPUs, so the clients never queue behind each other for a CPU.
	serveClients = 2
	// zipfS is the popularity skew: the coordinate of rank r is requested
	// with probability ∝ (r+1)^-zipfS.  It is an assumption, not measured
	// traffic: 0.7 was chosen so that about 1% of requests miss the
	// result cache and the miss path's stage medians (compile, measure,
	// render) have 150 or more samples in a phase.
	zipfS = 0.7
	// popularitySeed fixes which coordinate holds which popularity rank,
	// so every seed draws from the same distribution; the run's seed
	// draws the sequence.  The ranking is arbitrary, an assumption too.
	popularitySeed = 1995
	// cellWeight and breakdownWeight split requests between /v1/cell and
	// /v1/breakdown as cmd/predload's default mix does (-mix
	// cell=9,breakdown=1).
	cellWeight, breakdownWeight = 9, 1
	// serveTracePhase is how long the traced run drives the daemon after
	// its warm-up.
	serveTracePhase = 5 * time.Second
)

var serveWindows = []string{"0", "32"}

// serveCoord is one distinct request: a cell of the serving API's
// coordinate space, plain or with the cycle breakdown.
type serveCoord struct {
	kernel    string
	model     core.Model
	machine   string
	window    string
	breakdown bool
}

func (c serveCoord) endpoint() string {
	if c.breakdown {
		return "breakdown"
	}
	return "cell"
}

func (c serveCoord) key() string {
	return fmt.Sprintf("%s/%s/%s/w%s/%s", c.kernel, modelName(c.model), c.machine, c.window, c.endpoint())
}

// cell names the compiled artifact that serves the coordinate.
func (c serveCoord) cell() string {
	m, err := machine.ByName(c.machine)
	if err != nil {
		panic(err) // coordinates are built from machine.Names
	}
	return cell{c.kernel, c.model, experiments.SchedTarget(m)}.name()
}

func (c serveCoord) path() string {
	return fmt.Sprintf("/v1/%s?kernel=%s&model=%s&machine=%s&window=%s",
		c.endpoint(), c.kernel, modelName(c.model), c.machine, c.window)
}

// serveCoords is the coordinate space: 15 kernels × 3 models × 6
// machines × window {0, 32} × {cell, breakdown} = 1080 requests, more
// than the daemon's 1024-entry result cache, over 180 artifacts against
// its 64-entry artifact cache.  Coordinate 2b is base coordinate b's
// /v1/cell request and 2b+1 its /v1/breakdown request.
func serveCoords() []serveCoord {
	var out []serveCoord
	for _, k := range bench.All() {
		for _, m := range experiments.Models {
			for _, mc := range machine.Names() {
				for _, w := range serveWindows {
					out = append(out, serveCoord{k.Name, m, mc, w, false}, serveCoord{k.Name, m, mc, w, true})
				}
			}
		}
	}
	return out
}

// zipfSequence draws requests: a base coordinate by popularity rank —
// ranks map to base coordinates through a fixed permutation — then its
// endpoint by cellWeight:breakdownWeight.
type zipfSequence struct {
	rng  *rand.Rand
	cum  []float64 // cumulative rank weights
	rank []int     // rank → base coordinate
}

func newZipfSequence(seed int64, coords int) *zipfSequence {
	n := coords / 2
	s := &zipfSequence{
		rng:  rand.New(rand.NewSource(seed)),
		cum:  make([]float64, n),
		rank: rand.New(rand.NewSource(popularitySeed)).Perm(n),
	}
	total := 0.0
	for r := range s.cum {
		total += math.Pow(float64(r+1), -zipfS)
		s.cum[r] = total
	}
	return s
}

func (s *zipfSequence) next() int {
	b := s.rank[sort.SearchFloat64s(s.cum, s.rng.Float64()*s.cum[len(s.cum)-1])]
	if s.rng.Intn(cellWeight+breakdownWeight) < breakdownWeight {
		return 2*b + 1
	}
	return 2 * b
}

// weights gives every coordinate its probability, up to a common factor.
func (s *zipfSequence) weights() []float64 {
	w := make([]float64, 2*len(s.rank))
	for r, b := range s.rank {
		p := math.Pow(float64(r+1), -zipfS)
		w[2*b] = p * cellWeight
		w[2*b+1] = p * breakdownWeight
	}
	return w
}

// reqResult is one request as the client saw it.
type reqResult struct {
	coord      int
	ms         float64
	ok         bool
	cache      string             // X-Cache: hit, miss, coalesced, disk
	stages     map[string]float64 // Server-Timing, milliseconds
	start, end int64              // on the tracer's clock
}

// daemon is an in-process serve.Server behind a loopback listener.
type daemon struct {
	srv    *serve.Server
	base   string
	client *http.Client
	hs     *http.Server
	done   chan struct{}
}

func startDaemon() (*daemon, error) {
	srv, err := serve.New(serve.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}},
		hs:     &http.Server{Handler: srv},
		done:   make(chan struct{}),
	}
	go func() {
		defer close(d.done)
		d.hs.Serve(ln)
	}()
	return d, nil
}

// stop shuts the listener down and waits for the serving goroutine.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	d.hs.Shutdown(context.Background())
	<-d.done
}

// cellBody is the part of a /v1/cell or /v1/breakdown response the
// benchmark checks.
type cellBody struct {
	Checksum  int64          `json:"checksum"`
	Stats     sim.Stats      `json:"stats"`
	Breakdown *obs.Breakdown `json:"breakdown"`
}

// request sends one coordinate and checks the response: status 200, the
// kernel's reference checksum, the golden stats (and breakdown) hash, and
// a breakdown that sums to the cycle count.
func (e *env) request(d *daemon, coords []serveCoord, i int) reqResult {
	c := coords[i]
	r := reqResult{coord: i, start: e.tr.now()}
	resp, err := d.client.Get(d.base + c.path())
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	r.end = e.tr.now()
	r.ms = float64(r.end-r.start) / 1e6
	if err != nil {
		return r
	}
	r.cache = resp.Header.Get("X-Cache")
	r.stages = obs.ParseServerTiming(resp.Header.Get("Server-Timing"))
	if resp.StatusCode != http.StatusOK {
		return r
	}
	var b cellBody
	if json.Unmarshal(body, &b) != nil || b.Checksum != e.ref[c.kernel] {
		return r
	}
	if c.breakdown != (b.Breakdown != nil) || (b.Breakdown != nil && b.Breakdown.Total() != b.Stats.Cycles) {
		return r
	}
	if !e.checkHash(c.cell(), c.key(), responseHash(b.Stats, b.Breakdown), e.golden.ServeZipf[c.key()]) {
		return r
	}
	r.ok = true
	return r
}

// drive runs a closed loop of serveClients clients, each sending its
// next request when the previous one completes, until next reports no
// more requests.  next runs under drive's lock.
func (e *env) drive(d *daemon, coords []serveCoord, next func() (int, bool)) []reqResult {
	var (
		mu  sync.Mutex
		out []reqResult
		wg  sync.WaitGroup
	)
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		return next()
	}
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				r := e.request(d, coords, i)
				mu.Lock()
				out = append(out, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// tally counts results into the env's verdict.
func (e *env) tally(coords []serveCoord, rs []reqResult) {
	for _, r := range rs {
		e.attempted++
		if !r.ok {
			e.fail("%s: request failed or response did not check", coords[r.coord].key())
		}
	}
}

// until draws from seq until the deadline.
func until(seq *zipfSequence, deadline time.Time) func() (int, bool) {
	return func() (int, bool) {
		if time.Now().After(deadline) {
			return 0, false
		}
		return seq.next(), true
	}
}

// warmOrder lists every coordinate once, grouped by the artifact that
// serves it so each artifact compiles once, artifacts from the least to
// the most popular: the caches end up holding the popular entries.
func warmOrder(coords []serveCoord) []int {
	weight := newZipfSequence(0, len(coords)).weights()
	artWeight := map[string]float64{}
	for i, c := range coords {
		artWeight[c.cell()] += weight[i]
	}
	order := make([]int, len(coords))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		wa, wb := artWeight[coords[order[a]].cell()], artWeight[coords[order[b]].cell()]
		if wa != wb {
			return wa < wb
		}
		return weight[order[a]] < weight[order[b]]
	})
	return order
}

// serveSetup starts a daemon and warms it by requesting every coordinate
// once, in warmOrder.
func (e *env) serveSetup(coords []serveCoord) (*daemon, error) {
	d, err := startDaemon()
	if err != nil {
		return nil, err
	}
	order := warmOrder(coords)
	e.tally(coords, e.drive(d, coords, func() (int, bool) {
		if len(order) == 0 {
			return 0, false
		}
		i := order[0]
		order = order[1:]
		return i, true
	}))
	return d, nil
}
