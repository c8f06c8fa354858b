package cluster

import (
	"fmt"
	"sync"
)

// Directory is a thread-safe registry of dynamically joining and leaving
// nodes — the membership view behind executors whose capacity is not fixed
// at construction: the local worker pool and the remote worker server. It
// maintains the NodeView slice the scheduler reads and the per-node
// running count the placement policies balance on. Unlike the simulated
// Cluster it carries no failure model of its own; owners mark nodes up and
// down as they learn about the world (worker joins, heartbeat timeouts).
type Directory struct {
	mu    sync.Mutex
	nodes map[string]*NodeView
	order []string // join order, for a deterministic view
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{nodes: make(map[string]*NodeView)}
}

// Join adds a node or refreshes a known one (a rejoining worker keeps its
// position in the view). The node comes back with no running jobs: any
// work it carried before leaving was requeued when it was declared dead.
func (d *Directory) Join(v NodeView) {
	d.mu.Lock()
	defer d.mu.Unlock()
	v.Running = 0
	if _, known := d.nodes[v.Name]; !known {
		d.order = append(d.order, v.Name)
	}
	d.nodes[v.Name] = &v
}

// Leave removes a node entirely; it reports whether the node was known.
func (d *Directory) Leave(name string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.nodes[name]; !ok {
		return false
	}
	delete(d.nodes, name)
	for i, n := range d.order {
		if n == name {
			d.order = append(d.order[:i], d.order[i+1:]...)
			break
		}
	}
	return true
}

// SetUp marks a node up or down without forgetting it; a node going down
// sheds its running count (its jobs are being requeued). It reports
// whether the node was known.
func (d *Directory) SetUp(name string, up bool) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	n, ok := d.nodes[name]
	if !ok {
		return false
	}
	n.Up = up
	if !up {
		n.Running = 0
	}
	return true
}

// Reserve takes one CPU slot on the node, failing like the simulated
// cluster does so dispatch errors route through the same requeue path.
func (d *Directory) Reserve(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	n, ok := d.nodes[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, name)
	}
	if !n.Up {
		return fmt.Errorf("%w: %s", ErrNodeDown, name)
	}
	if n.Running >= n.CPUs {
		return fmt.Errorf("%w: %s", ErrNoFreeCPU, name)
	}
	n.Running++
	return nil
}

// Release frees one CPU slot taken by Reserve. Releases after the node
// went down (or left and rejoined) are ignored — SetUp already zeroed the
// count.
func (d *Directory) Release(name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n, ok := d.nodes[name]; ok && n.Running > 0 {
		n.Running--
	}
}

// Nodes returns the current views in join order.
func (d *Directory) Nodes() []NodeView { return d.AppendNodes(nil) }

// AppendNodes appends the current views, in join order, to dst: a caller that
// keeps one buffer takes a view without allocating, and a nil dst is sized once.
func (d *Directory) AppendNodes(dst []NodeView) []NodeView {
	d.mu.Lock()
	defer d.mu.Unlock()
	if dst == nil {
		dst = make([]NodeView, 0, len(d.order))
	}
	for _, name := range d.order {
		dst = append(dst, *d.nodes[name])
	}
	return dst
}
