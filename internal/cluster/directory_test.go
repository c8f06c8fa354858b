package cluster

import (
	"errors"
	"testing"
)

// view finds a node's view the way the dispatcher does, in a Nodes view.
func view(d *Directory, name string) (NodeView, bool) {
	for _, v := range d.Nodes() {
		if v.Name == name {
			return v, true
		}
	}
	return NodeView{}, false
}

func TestDirectoryJoinReserveRelease(t *testing.T) {
	d := NewDirectory()
	d.Join(NodeView{Name: "w1-00", OS: "linux", Up: true, CPUs: 2, Speed: 1})
	d.Join(NodeView{Name: "w2-00", OS: "linux", Up: true, CPUs: 1, Speed: 1})
	if len(d.Nodes()) != 2 {
		t.Fatalf("Len = %d", len(d.Nodes()))
	}
	if err := d.Reserve("w1-00"); err != nil {
		t.Fatal(err)
	}
	if err := d.Reserve("w1-00"); err != nil {
		t.Fatal(err)
	}
	if err := d.Reserve("w1-00"); !errors.Is(err, ErrNoFreeCPU) {
		t.Fatalf("third Reserve = %v, want ErrNoFreeCPU", err)
	}
	if err := d.Reserve("ghost"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("Reserve(ghost) = %v, want ErrUnknownNode", err)
	}
	views := d.Nodes()
	if len(views) != 2 || views[0].Name != "w1-00" || views[0].Running != 2 {
		t.Fatalf("Nodes = %+v", views)
	}
	d.Release("w1-00")
	if v, _ := view(d, "w1-00"); v.Running != 1 {
		t.Fatalf("Running after Release = %d", v.Running)
	}
}

func TestDirectoryDownAndRejoin(t *testing.T) {
	d := NewDirectory()
	d.Join(NodeView{Name: "w1-00", Up: true, CPUs: 1, Speed: 1})
	if err := d.Reserve("w1-00"); err != nil {
		t.Fatal(err)
	}
	if !d.SetUp("w1-00", false) {
		t.Fatal("SetUp unknown")
	}
	if err := d.Reserve("w1-00"); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("Reserve(down) = %v, want ErrNodeDown", err)
	}
	// A release straggling in after the node went down must not underflow.
	d.Release("w1-00")
	if v, _ := view(d, "w1-00"); v.Running != 0 {
		t.Fatalf("Running = %d", v.Running)
	}
	// Rejoin refreshes the view in place and keeps its position.
	d.Join(NodeView{Name: "w1-00", Up: true, CPUs: 4, Speed: 2})
	v, ok := view(d, "w1-00")
	if !ok || !v.Up || v.CPUs != 4 || v.Running != 0 {
		t.Fatalf("rejoined view = %+v", v)
	}
	if len(d.Nodes()) != 1 {
		t.Fatalf("Len after rejoin = %d", len(d.Nodes()))
	}
	if !d.Leave("w1-00") || d.Leave("w1-00") {
		t.Fatal("Leave bookkeeping broken")
	}
	if len(d.Nodes()) != 0 {
		t.Fatalf("Len after Leave = %d", len(d.Nodes()))
	}
}

// TestDirectoryViewIntoCallersBuffer: AppendNodes fills the buffer it is
// handed — the dispatcher keeps one — and allocates only for a nil one.
func TestDirectoryViewIntoCallersBuffer(t *testing.T) {
	d := NewDirectory()
	d.Join(NodeView{Name: "a", Up: true, CPUs: 1, Speed: 1})
	d.Join(NodeView{Name: "b", Up: true, CPUs: 1, Speed: 1})
	buf := d.AppendNodes(nil)
	if len(buf) != 2 || buf[0].Name != "a" {
		t.Fatalf("view = %+v, want a then b", buf)
	}
	d.SetUp("b", false)
	if allocs := testing.AllocsPerRun(20, func() { buf = d.AppendNodes(buf[:0]) }); allocs != 0 {
		t.Errorf("%v allocations per view taken into a buffer that fits, want 0", allocs)
	}
	if len(buf) != 2 || buf[1].Name != "b" || buf[1].Up {
		t.Fatalf("reused buffer holds %+v, want the current view", buf)
	}
}
