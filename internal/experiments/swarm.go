package experiments

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"p4p/internal/apptracker"
	"p4p/internal/core"
	"p4p/internal/itracker"
	"p4p/internal/p2psim"
	"p4p/internal/topology"
)

// policyName labels the three compared systems as the paper does.
const (
	policyNative    = "native"
	policyLocalized = "localized"
	policyP4P       = "p4p"
)

// Cell is one BitTorrent swarm of the Section 7.2-7.3 comparison: a
// topology, one policy, a client population and, for the P4P arm, the
// provider in the loop. Figures 6-10 and ablation A2 are lists of cells
// plus an extractor, and FigureCell hands one of them to cmd/p4psim. A
// cell owns nothing shared but read-only inputs (graph, routing, link
// lists, virtual capacities), so cells run concurrently on the worker
// pool.
type Cell struct {
	policy string
	// sim carries topology, routing, seed, file, piece and streaming
	// settings; Run adds the selector and, for P4P, the measure hook.
	// The localized arm's delay jitter draws from sim.Seed+3.
	sim   p2psim.Config
	place placement

	// The P4P arm. A non-empty protect serves Figure 6's protected-link
	// views; otherwise an iTracker named by tracker runs an engine with
	// the given config, virtual capacities and a warm-start price of 1
	// on each virtual-capacity link.
	p4p        apptracker.P4PConfig
	measure    float64 // seconds between link-rate feedbacks
	protect    []topology.LinkID
	engine     core.Config
	virtualBps map[topology.LinkID]float64
	tracker    itracker.Config
}

// placement is a cell's client population.
type placement struct {
	clients    int     // leechers
	seedBps    float64 // each seed's up and down rate
	leecherBps float64 // each leecher's up and down rate
	joinWindow float64 // leecher i joins at joinWindow*i/clients
	rngSeed    int64   // drives the leechers' PIDs
}

// FigureCell returns the cell that figure F6, F7, F8 or F10 runs for
// policy ("native", "localized" or "p4p") with the given number of
// leechers and seed. F7 and F8 run one cell per swarm size n, at seed
// Options.Seed+n. An unknown figure or policy, or fewer than one client,
// is an error.
func FigureCell(figure, policy string, clients int, seed int64) (Cell, error) {
	if !slices.Contains([]string{policyNative, policyLocalized, policyP4P}, policy) {
		return Cell{}, fmt.Errorf("unknown policy %q: want native, localized or p4p", policy)
	}
	if clients < 1 {
		return Cell{}, fmt.Errorf("%d clients: want at least 1", clients)
	}
	var c Cell
	switch figure {
	case "F6":
		c = figure6Cell(clients, seed)
	case "F7":
		g := topology.Abilene()
		c = sweepCell(g, topology.ComputeRouting(g), clients, seed)
	case "F8":
		g := topology.ISPA()
		c = sweepCell(g, topology.ComputeRouting(g), clients, seed)
	case "F10":
		c = figure10Cell(clients, seed)
	default:
		return Cell{}, fmt.Errorf("figure %q has no swarm cell: want F6, F7, F8 or F10", figure)
	}
	c.policy = policy
	return c, nil
}

// Graph is the cell's topology.
func (c Cell) Graph() *topology.Graph { return c.sim.Graph }

// Run runs the swarm. It is the tree's only switch on policy.
func (c Cell) Run() *p2psim.Result {
	cfg := c.sim
	switch c.policy {
	case policyNative:
		cfg.Selector = apptracker.Random{}
	case policyLocalized:
		cfg.Selector = delaySelector(cfg.Routing, cfg.Seed+3)
	case policyP4P:
		cfg.MeasureInterval = c.measure
		if len(c.protect) > 0 {
			pv := &protectedLinkViews{r: cfg.Routing, pids: cfg.Graph.AggregationPIDs(), protected: c.protect}
			cfg.Selector = &apptracker.P4P{Views: pv, Config: c.p4p}
			cfg.OnMeasure = func(now float64, rates []float64) { pv.Observe(rates) }
			break
		}
		engine := core.NewEngine(cfg.Graph, cfg.Routing, c.engine)
		for e, ve := range c.virtualBps {
			engine.SetVirtualCapacity(e, ve)
			// Warm start: the provider prices its billing-sensitive
			// circuits from historical data before any swarm traffic
			// arrives; the super-gradient relaxes the price while
			// observed traffic stays under v_e.
			engine.SetPrice(e, 1.0)
		}
		tr := itracker.New(c.tracker, engine, nil)
		cfg.Selector = &apptracker.P4P{Views: tr, Config: c.p4p}
		cfg.OnMeasure = func(now float64, rates []float64) { tr.ObserveAndUpdate(rates) }
	default:
		panic("experiments: unknown policy " + c.policy)
	}
	sim := p2psim.New(cfg)
	c.place.addClients(sim)
	return sim.Run()
}

// arms returns one copy of c per policy, in the given order.
func arms(c Cell, policies ...string) []Cell {
	cells := make([]Cell, len(policies))
	for i, policy := range policies {
		c.policy = policy
		cells[i] = c
	}
	return cells
}

// runCells fans cells across the worker pool and returns their results
// in cell order.
func (o Options) runCells(cells []Cell) []*p2psim.Result {
	results := make([]*p2psim.Result, len(cells))
	o.forEachCell(len(cells), func(i int) { results[i] = cells[i].Run() })
	return results
}

// addClients adds one seed per ASN, at that ASN's first PID in
// AggregationPIDs order (the paper co-locates seeds; one per side lets
// both halves of a multihomed graph bootstrap), then the leechers, each
// tagged with its PID's ASN so the staged selection's inter-AS stage
// engages. Placement follows populationCDF: client density is highly
// non-uniform in practice ("consider the high concentration of clients
// in certain areas such as the northeastern part of US", Section 2), and
// that skew is exactly what makes pure locality-based peering
// concentrate traffic on a few backbone links.
func (p placement) addClients(s *p2psim.Sim) {
	g := s.Graph()
	pids := g.AggregationPIDs()
	rng := rand.New(rand.NewSource(p.rngSeed))
	seeded := map[int]bool{}
	for _, pid := range pids {
		if asn := g.Node(pid).ASN; !seeded[asn] {
			s.AddClient(p2psim.ClientSpec{PID: pid, ASN: asn, UpBps: p.seedBps, DownBps: p.seedBps, IsSeed: true, Class: "seed"})
			seeded[asn] = true
		}
	}
	cum := populationCDF(g, pids)
	for i := 0; i < p.clients; i++ {
		// The first PID whose cumulative weight reaches the draw.
		k := sort.SearchFloat64s(cum, rng.Float64()*cum[len(cum)-1])
		pid := pids[min(k, len(cum)-1)]
		s.AddClient(p2psim.ClientSpec{
			PID:     pid,
			ASN:     g.Node(pid).ASN,
			UpBps:   p.leecherBps,
			DownBps: p.leecherBps,
			JoinAt:  p.joinWindow * float64(i) / float64(p.clients),
		})
	}
}

// populationCDF assigns placement weight per PID and returns the running
// sums (the last is the total). Abilene gets a metro-population profile
// with the northeastern concentration the paper calls out; other
// topologies get a Zipf profile over PIDs.
func populationCDF(g *topology.Graph, pids []topology.PID) []float64 {
	abilene := map[string]float64{
		"NewYork": 0.22, "WashingtonDC": 0.18, "Chicago": 0.12,
		"LosAngeles": 0.12, "Atlanta": 0.09, "Indianapolis": 0.05,
		"Houston": 0.06, "Denver": 0.05, "KansasCity": 0.04,
		"Seattle": 0.04, "Sunnyvale": 0.03,
	}
	cum := make([]float64, len(pids))
	total := 0.0
	for i, pid := range pids {
		w, ok := abilene[g.Node(pid).Name]
		if !ok || g.Name != "Abilene" {
			w = 1 / float64(i+1) // Zipf(1)
		}
		total += w
		cum[i] = total
	}
	return cum
}

// protectedLinkViews is the Figure 6 iTracker: "the iTracker initially
// assigns 0 to p-distances, and increases the p-distance of the
// protected link if clients use this link." Distances are zero
// everywhere except across the protected link.
type protectedLinkViews struct {
	mu        sync.Mutex
	r         *topology.Routing
	pids      []topology.PID
	protected []topology.LinkID // typically the duplex pair of the circuit
	price     float64           // rises by 1 per measurement the circuit carries traffic
	cached    *core.View
	version   int
}

// Observe raises the protected circuit's price when it carries traffic.
func (p *protectedLinkViews) Observe(linkRateBps []float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range p.protected {
		if linkRateBps[e] > 0 {
			p.price++
			p.version++
			p.cached = nil
			return
		}
	}
}

// ViewFor implements apptracker.ViewProvider.
func (p *protectedLinkViews) ViewFor(asn int) apptracker.DistanceView {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cached != nil {
		return p.cached
	}
	v := &core.View{PIDs: append([]topology.PID(nil), p.pids...), Version: p.version}
	v.D = make([][]float64, len(p.pids))
	for a, i := range p.pids {
		v.D[a] = make([]float64, len(p.pids))
		for b, j := range p.pids {
			if a == b {
				continue
			}
			for _, e := range p.protected {
				if p.r.OnPath(e, i, j) {
					v.D[a][b] = p.price
					break
				}
			}
		}
	}
	p.cached = v
	return v
}

// delaySelector builds the delay-localized baseline: ranking peers by
// measured round-trip delay. Real RTT measurements carry last-mile and
// queueing noise far larger than metro-scale propagation differences,
// so the model adds a deterministic per-measurement jitter; without it,
// delay ranking would resolve same-PoP peers perfectly, which no
// Internet measurement can.
func delaySelector(r *topology.Routing, seed int64) apptracker.Selector {
	jrng := rand.New(rand.NewSource(seed))
	var mu sync.Mutex
	return &apptracker.Localized{Delay: func(a, b apptracker.Node) float64 {
		mu.Lock()
		j := jrng.Float64() * 0.015
		mu.Unlock()
		return r.PropagationDelaySeconds(a.PID, b.PID) + j
	}}
}
