// Endpoint tests for the monitor server against both runtimes: the sim
// runtime gives deterministic virtual timestamps (so the drill-down view
// can be pinned byte-for-byte against a golden file), the local runtime
// proves the same wiring works when activities really execute.
//bioopera:allow walltime file-wide: HTTP round-trips and the local runtime run in real time

package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bioopera/internal/obs"
	"bioopera/internal/ocr"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// getJSON fetches url, asserts the status code, and decodes into out.
func getJSON(t *testing.T, url string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s = %d, want %d\n%s", url, resp.StatusCode, wantStatus, body)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding: %v", url, err)
		}
	}
}

// instancesResp mirrors the /api/instances envelope.
type instancesResp struct {
	Instances []obs.InstanceSummary `json:"instances"`
}

// eventsResp mirrors the /api/events envelope.
type eventsResp struct {
	Events []struct {
		Seq  uint64 `json:"seq"`
		Data Event  `json:"data"`
	} `json:"events"`
	Next    uint64 `json:"next"`
	Dropped uint64 `json:"dropped"`
}

// monitorEndpoints drives every endpoint of a started monitor server and
// returns the finished instance's listing row. Shared by the sim and
// local variants; node names and CPU totals differ per executor.
func monitorEndpoints(t *testing.T, base, id string) obs.InstanceSummary {
	t.Helper()

	var list instancesResp
	getJSON(t, base+"/api/instances", http.StatusOK, &list)
	if len(list.Instances) != 1 {
		t.Fatalf("instances = %+v, want exactly one", list.Instances)
	}
	row := list.Instances[0]
	if row.ID != id || row.Status != "done" || row.Template != "Linear" {
		t.Fatalf("listing row = %+v", row)
	}
	if row.Progress != 1 || row.Activities != 2 || row.Running != 0 || row.Queued != 0 {
		t.Fatalf("listing accounting = %+v", row)
	}

	var det obs.InstanceDetail
	getJSON(t, base+"/api/instances/"+id, http.StatusOK, &det)
	if det.ID != id || len(det.Scopes) != 1 {
		t.Fatalf("detail = %+v", det)
	}
	root := det.Scopes[0]
	if root.ID != "" || root.Proc != "Linear" || !root.Done || len(root.Tasks) != 2 {
		t.Fatalf("root scope = %+v", root)
	}
	for _, ts := range root.Tasks {
		if ts.Status != "ended" || ts.Node == "" {
			t.Fatalf("task = %+v, want ended on a named node", ts)
		}
	}
	var result string
	for _, nv := range det.Outputs {
		if nv.Name == "result" {
			result = nv.Value
		}
	}
	if result != "14" {
		t.Fatalf("outputs = %+v, want result 14", det.Outputs)
	}
	if len(det.Lineage) == 0 || len(det.Programs) != 2 {
		t.Fatalf("provenance: lineage=%+v programs=%+v", det.Lineage, det.Programs)
	}

	// Unknown instance: JSON error with a 404.
	var apiErr map[string]string
	getJSON(t, base+"/api/instances/ghost", http.StatusNotFound, &apiErr)
	if apiErr["error"] == "" {
		t.Fatalf("404 body = %+v, want an error field", apiErr)
	}

	// What-if without a node is a usage error.
	getJSON(t, base+"/api/whatif", http.StatusBadRequest, &apiErr)

	// The run is over, so the ring holds the full event trail.
	var evs eventsResp
	getJSON(t, base+"/api/events?waitMs=0", http.StatusOK, &evs)
	if len(evs.Events) == 0 || evs.Dropped != 0 {
		t.Fatalf("events = %d dropped = %d", len(evs.Events), evs.Dropped)
	}
	if evs.Next != evs.Events[len(evs.Events)-1].Seq {
		t.Fatalf("next = %d, want tail seq %d", evs.Next, evs.Events[len(evs.Events)-1].Seq)
	}
	kinds := make(map[string]bool)
	for _, ev := range evs.Events {
		kinds[string(ev.Data.Kind)] = true
	}
	for _, want := range []string{"instance-started", "task-dispatched", "task-ended", "instance-done"} {
		if !kinds[want] {
			t.Fatalf("event ring missing %q: %v", want, kinds)
		}
	}
	// Resuming past the tail returns an empty batch, not a hang.
	getJSON(t, base+"/api/events?waitMs=0&after="+ /* tail */ "999999", http.StatusOK, &evs)
	if len(evs.Events) != 0 {
		t.Fatalf("tail resume returned %d events", len(evs.Events))
	}
	return row
}

// metricsBody scrapes /metrics and asserts the exposition contains every
// wanted series prefix.
func metricsBody(t *testing.T, base string, want []string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content-type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range want {
		if !strings.Contains(string(body), w) {
			t.Fatalf("metrics missing %q:\n%s", w, body)
		}
	}
	return string(body)
}

func TestMonitorEndpointsSim(t *testing.T) {
	reg := obs.NewRegistry()
	ring := obs.NewRing(256)
	rt := newRuntime(t, SimConfig{Options: Options{Metrics: reg, EventRing: ring}})
	register(t, rt, linearSrc)
	id := start(t, rt, "Linear", map[string]ocr.Value{"a": ocr.Num(3), "b": ocr.Num(4)})
	rt.Run()
	finished(t, rt, id)

	src := NewMonitorSource(rt.Engine)
	src.SetLoads(rt.ReportedLoads)
	srv := obs.NewServer(obs.ServerConfig{Source: src, Registry: reg, Events: ring})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	monitorEndpoints(t, ts.URL, id)

	// The listing row's timestamps are virtual, so the whole drill-down
	// is byte-stable: pin it against the golden file.
	resp, err := http.Get(ts.URL + "/api/instances/" + id)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "monitor_detail.json")
	if *updateGolden {
		if err := os.WriteFile(golden, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if string(body) != string(want) {
		t.Fatalf("detail JSON drifted from golden:\ngot:\n%s\nwant:\n%s", body, want)
	}

	var ci obs.ClusterInfo
	getJSON(t, ts.URL+"/api/cluster", http.StatusOK, &ci)
	if len(ci.Nodes) != 2 || ci.TotalCPUs != 4 || ci.BusySlots != 0 || ci.RunningJobs != 0 || ci.QueueDepth != 0 {
		t.Fatalf("cluster = %+v", ci)
	}

	var rep obs.OutageReport
	getJSON(t, ts.URL+"/api/whatif?node=n1", http.StatusOK, &rep)
	if len(rep.Nodes) != 1 || rep.Nodes[0] != "n1" || rep.RemainingCPUs != 2 {
		t.Fatalf("whatif = %+v", rep)
	}
	if len(rep.Jobs) != 0 || len(rep.Instances) != 0 {
		t.Fatalf("whatif after the run reported work: %+v", rep)
	}

	metricsBody(t, ts.URL, []string{
		`bioopera_engine_events_total{kind="instance-done"} 1`,
		`bioopera_engine_events_total{kind="task-ended"} 2`,
		"bioopera_engine_turn_seconds_count",
		"bioopera_engine_queue_depth 0",
		"bioopera_sched_held_jobs 0",
	})

	// A suspended instance's queued activity shows as held on both
	// surfaces, and still counts in the queue depth.
	rt.Engine.PauseAll()
	held := start(t, rt, "Linear", map[string]ocr.Value{"a": ocr.Num(1), "b": ocr.Num(2)})
	if err := rt.Engine.Suspend(held, true); err != nil {
		t.Fatal(err)
	}
	rt.Engine.ResumeAll()
	getJSON(t, ts.URL+"/api/cluster", http.StatusOK, &ci)
	if ci.QueueDepth != 1 || ci.HeldJobs != 1 || ci.RunningJobs != 0 {
		t.Fatalf("cluster with one suspended instance = %+v", ci)
	}
	metricsBody(t, ts.URL, []string{"bioopera_engine_queue_depth 1", "bioopera_sched_held_jobs 1"})
}

// eventsGolden is the sha256 of the /api/events body after
// TestMonitorEventsChain8's run. It was captured while the ring held each
// event's JSON journal record; the ring now holds the events and renders
// them when the endpoint is read, and a client must not see the difference.
const eventsGolden = "b061265ec26a8a726987b8bd4a2c5d1a84881bc45a68b4a976a77f59d7176f76"

func TestMonitorEventsChain8(t *testing.T) {
	ring := obs.NewRing(256)
	rt := newRuntime(t, SimConfig{Options: Options{EventRing: ring}})
	register(t, rt, chain8Src)
	id := start(t, rt, "Chain8", map[string]ocr.Value{"x": ocr.Num(1)})
	rt.Run()
	finished(t, rt, id)
	srv := obs.NewServer(obs.ServerConfig{Source: NewMonitorSource(rt.Engine), Events: ring})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/api/events?waitMs=0")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(body); hex.EncodeToString(sum[:]) != eventsGolden {
		t.Fatalf("/api/events body digest = %x, want %s\n%s", sum, eventsGolden, body)
	}
}

func TestMonitorEndpointsLocal(t *testing.T) {
	reg := obs.NewRegistry()
	ring := obs.NewRing(256)
	rt, err := NewLocalRuntime(LocalConfig{
		Workers: 2, Library: testLibrary(t), Metrics: reg, EventRing: ring,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	if err := rt.RegisterTemplateSource(linearSrc); err != nil {
		t.Fatal(err)
	}
	id, err := rt.StartProcess("Linear", map[string]ocr.Value{"a": ocr.Num(3), "b": ocr.Num(4)}, StartOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Wait(id, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	// Exercise the real listener path the CLI uses, not just the handler.
	srv := obs.NewServer(obs.ServerConfig{
		Source:   NewMonitorSource(rt.Engine()),
		Registry: reg,
		Events:   ring,
	})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	row := monitorEndpoints(t, base, id)
	if row.CPUSeconds <= 0 {
		t.Fatalf("local run charged no CPU time: %+v", row)
	}

	var ci obs.ClusterInfo
	getJSON(t, base+"/api/cluster", http.StatusOK, &ci)
	if len(ci.Nodes) != 2 || ci.TotalCPUs != 2 || ci.BusySlots != 0 {
		t.Fatalf("cluster = %+v", ci)
	}
	for _, n := range ci.Nodes {
		if !strings.HasPrefix(n.Name, "local-") || !n.Up || n.CPUs != 1 {
			t.Fatalf("node = %+v", n)
		}
	}

	var rep obs.OutageReport
	getJSON(t, base+"/api/whatif?node="+ci.Nodes[0].Name, http.StatusOK, &rep)
	if rep.RemainingCPUs != 1 {
		t.Fatalf("whatif = %+v", rep)
	}

	metricsBody(t, base, []string{
		"bioopera_local_slots_total 2",
		"bioopera_local_slots_busy 0",
		`bioopera_engine_events_total{kind="instance-done"} 1`,
	})
}
