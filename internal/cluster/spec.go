// Package cluster models the computing infrastructure BioOpera manages:
// heterogeneous nodes with one or more CPUs, per-node program execution
// clients (PECs) with adaptive load monitoring, competing external load,
// and the failure/maintenance events of a real shared cluster.
//
// The primary implementation runs on the discrete-event simulator
// (internal/sim), so the month-long lifecycles of the paper's §5 replay
// deterministically in milliseconds. The node speeds and counts below
// mirror the paper's three clusters (§5.1).
package cluster

// NodeSpec describes one machine of a cluster (the configuration space
// holds one of these per node).
type NodeSpec struct {
	// Name identifies the node ("linneus03").
	Name string
	// CPUs is the number of processors.
	CPUs int
	// Speed is the per-CPU throughput relative to a reference CPU
	// (1.0 = one ik-linux 650 MHz processor).
	Speed float64
	// OS is informational ("linux", "solaris").
	OS string
}

// Spec describes a whole cluster.
type Spec struct {
	Name  string
	Nodes []NodeSpec
}

// TotalCPUs returns the summed CPU count.
func (s Spec) TotalCPUs() int {
	var n int
	for _, node := range s.Nodes {
		n += node.CPUs
	}
	return n
}

// IkSun returns the ik-sun cluster of §5.1: five single-CPU Sun Ultra 5
// workstations (360 MHz) — the exclusive-mode cluster of the granularity
// experiment (Fig. 4).
func IkSun() Spec {
	s := Spec{Name: "ik-sun"}
	for i := 0; i < 5; i++ {
		s.Nodes = append(s.Nodes, NodeSpec{
			Name: nodeName("iksun", i), CPUs: 1, Speed: 0.55, OS: "solaris",
		})
	}
	return s
}

// IkLinux returns the ik-linux cluster of §5.1: eight two-processor PCs
// (650 MHz). The second run (Fig. 6) started with one CPU per node and
// was upgraded to two mid-run; NewSim can be configured with
// InitialCPUs to model that.
func IkLinux() Spec {
	s := Spec{Name: "ik-linux"}
	for i := 0; i < 8; i++ {
		s.Nodes = append(s.Nodes, NodeSpec{
			Name: nodeName("iklinux", i), CPUs: 2, Speed: 1.0, OS: "linux",
		})
	}
	return s
}

// Linneus returns the linneus cluster of §5.1: sixteen two-processor PCs
// (500 MHz) plus one six-CPU Sun Enterprise (336 MHz) — 38 CPUs total,
// matching the ≈40-processor peak of Fig. 5 (together with two ik-sun
// nodes).
func Linneus() Spec {
	s := Spec{Name: "linneus"}
	for i := 0; i < 16; i++ {
		s.Nodes = append(s.Nodes, NodeSpec{
			Name: nodeName("linneus", i), CPUs: 2, Speed: 0.77, OS: "linux",
		})
	}
	s.Nodes = append(s.Nodes, NodeSpec{Name: "linneus-sun", CPUs: 6, Speed: 0.52, OS: "solaris"})
	return s
}

// SharedRunSpec returns the infrastructure of the first all-vs-all run
// (§5.4): the linneus cluster plus two ik-sun nodes, 40 CPUs at peak.
func SharedRunSpec() Spec {
	s := Linneus()
	s.Name = "linneus+iksun"
	ik := IkSun()
	s.Nodes = append(s.Nodes, ik.Nodes[0], ik.Nodes[1])
	return s
}

func nodeName(prefix string, i int) string {
	return prefix + "-" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}
