package cluster

import (
	"testing"
	"time"

	"bioopera/internal/sim"
)

// testLoadGenConfig keeps bursts short so a simulated hour sees many
// idle→burst cycles.
func testLoadGenConfig() LoadGenConfig {
	return LoadGenConfig{
		MeanIdle:  2 * time.Minute,
		MeanBurst: 2 * time.Minute,
		LevelLo:   0.4,
		LevelHi:   1.0,
	}
}

// sampleLoads advances the sim in fixed steps, recording the external
// load of each named node at every step.
func sampleLoads(s *sim.Sim, c *Cluster, horizon, step time.Duration, nodes ...string) map[string][]float64 {
	out := make(map[string][]float64, len(nodes))
	for at := step; at <= horizon; at += step {
		s.RunUntil(sim.Time(at))
		for _, n := range nodes {
			out[n] = append(out[n], c.ExternalLoad(n))
		}
	}
	return out
}

func TestLoadGenBurstLevelsWithinBounds(t *testing.T) {
	s, c, _, _ := testCluster(t)
	cfg := testLoadGenConfig()
	cfg.Nodes = []string{"n1"}
	NewLoadGen(c, cfg)

	loads := sampleLoads(s, c, 2*time.Hour, 10*time.Second, "n1", "n2")
	var bursts, idles int
	for _, l := range loads["n1"] {
		switch {
		case l == 0:
			idles++
		case l >= cfg.LevelLo && l <= cfg.LevelHi:
			bursts++
		default:
			t.Fatalf("burst level %v outside [%v, %v]", l, cfg.LevelLo, cfg.LevelHi)
		}
	}
	if bursts == 0 || idles == 0 {
		t.Errorf("saw %d burst and %d idle samples; want both phases", bursts, idles)
	}
	// The generator was restricted to n1; n2 must stay untouched.
	for _, l := range loads["n2"] {
		if l != 0 {
			t.Fatalf("restricted generator loaded n2 to %v", l)
		}
	}
}
