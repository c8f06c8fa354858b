package cluster

import (
	"time"

	"bioopera/internal/sim"
)

// LoadGenConfig shapes the competing-user load on a shared cluster (§5.4:
// "the cluster was shared with other users, BioOpera jobs were run in nice
// mode, giving priority to the other users, who at some times utilized the
// cluster very heavily").
type LoadGenConfig struct {
	// MeanIdle is the mean time a node stays idle between bursts.
	MeanIdle time.Duration
	// MeanBurst is the mean duration of a competing burst.
	MeanBurst time.Duration
	// LevelLo and LevelHi bound the burst intensity (uniform draw).
	LevelLo, LevelHi float64
	// Nodes restricts generation to these nodes (nil = all).
	Nodes []string
	// Fill, when set, makes every burst hit *all* selected nodes at
	// once (the "user tends to fill all machines" pattern of §5.4);
	// otherwise each node bursts independently (the "subset" pattern).
	Fill bool
}

// LoadGen drives external load on a cluster using the simulator's seeded
// randomness, so runs are reproducible.
type LoadGen struct {
	c   *Cluster
	cfg LoadGenConfig
}

// NewLoadGen attaches a generator to the cluster and starts it.
func NewLoadGen(c *Cluster, cfg LoadGenConfig) *LoadGen {
	if cfg.MeanIdle <= 0 {
		cfg.MeanIdle = 4 * time.Hour
	}
	if cfg.MeanBurst <= 0 {
		cfg.MeanBurst = 2 * time.Hour
	}
	if cfg.LevelHi <= 0 {
		cfg.LevelHi = 1
	}
	if cfg.LevelLo < 0 {
		cfg.LevelLo = 0
	}
	g := &LoadGen{c: c, cfg: cfg}
	nodes := cfg.Nodes
	if nodes == nil {
		for _, v := range c.Nodes() {
			nodes = append(nodes, v.Name)
		}
	}
	if cfg.Fill {
		g.scheduleFill(nodes)
	} else {
		for _, n := range nodes {
			g.scheduleNode(n)
		}
	}
	return g
}

func (g *LoadGen) expDelay(mean time.Duration) time.Duration {
	d := time.Duration(g.c.S.Rand().ExpFloat64() * float64(mean))
	if d < time.Second {
		d = time.Second
	}
	return d
}

func (g *LoadGen) level() float64 {
	return g.cfg.LevelLo + g.c.S.Rand().Float64()*(g.cfg.LevelHi-g.cfg.LevelLo)
}

// scheduleNode runs the idle→burst→idle cycle for one node.
func (g *LoadGen) scheduleNode(name string) {
	g.c.S.After(g.expDelay(g.cfg.MeanIdle), func(sim.Time) {
		lvl := g.level()
		g.c.SetExternalLoad(name, lvl)
		g.c.S.After(g.expDelay(g.cfg.MeanBurst), func(sim.Time) {
			g.c.SetExternalLoad(name, 0)
			g.scheduleNode(name)
		})
	})
}

// scheduleFill runs cluster-wide bursts across all nodes simultaneously.
func (g *LoadGen) scheduleFill(nodes []string) {
	g.c.S.After(g.expDelay(g.cfg.MeanIdle), func(sim.Time) {
		lvl := g.level()
		for _, n := range nodes {
			g.c.SetExternalLoad(n, lvl)
		}
		g.c.S.After(g.expDelay(g.cfg.MeanBurst), func(sim.Time) {
			for _, n := range nodes {
				g.c.SetExternalLoad(n, 0)
			}
			g.scheduleFill(nodes)
		})
	})
}
