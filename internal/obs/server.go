package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// The monitor server is the paper's GUI over HTTP (§3.2: "users interact
// with the system through a graphical user interface [to] monitor their
// processes"; §3.5: administrators query load and plan outages). It serves
// JSON snapshots assembled by a Source — an interface the engine
// implements — so obs never depends on core.

// ActivityInfo is one task occurrence inside an instance.
type ActivityInfo struct {
	Scope    string  `json:"scope"`
	Task     string  `json:"task"`
	Status   string  `json:"status"`
	Node     string  `json:"node,omitempty"`
	Attempts int     `json:"attempts,omitempty"`
	Seconds  float64 `json:"seconds,omitempty"` // CPU time charged so far
}

// NamedValue is one whiteboard or output binding.
type NamedValue struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// InstanceSummary is one row of the /api/instances listing.
type InstanceSummary struct {
	ID         string  `json:"id"`
	Template   string  `json:"template"`
	Status     string  `json:"status"`
	Priority   int     `json:"priority"`
	Progress   float64 `json:"progress"` // fraction of tasks in a terminal state
	Running    int     `json:"running"`
	Queued     int     `json:"queued"`
	Activities int     `json:"activities"`
	Failures   int     `json:"failures"`
	Retries    int     `json:"retries"`
	CPUSeconds float64 `json:"cpuSeconds"`
	StartedSec float64 `json:"startedSec"`
	EndedSec   float64 `json:"endedSec,omitempty"`
	Failure    string  `json:"failure,omitempty"`
}

// ScopeInfo is one scope of an instance: its whiteboard values and the
// status of every activated task.
type ScopeInfo struct {
	ID     string         `json:"id"` // "" is the root scope
	Proc   string         `json:"proc"`
	Done   bool           `json:"done"`
	Values []NamedValue   `json:"values,omitempty"`
	Tasks  []ActivityInfo `json:"tasks,omitempty"`
}

// LineageItem is one data item's provenance edge set.
type LineageItem struct {
	Item      string   `json:"item"`
	Producer  string   `json:"producer,omitempty"`
	Consumers []string `json:"consumers,omitempty"`
}

// InstanceDetail is the /api/instances/{id} response.
type InstanceDetail struct {
	InstanceSummary
	Outputs      []NamedValue   `json:"outputs,omitempty"`
	Scopes       []ScopeInfo    `json:"scopes"`
	RunningTasks []ActivityInfo `json:"runningTasks,omitempty"`
	QueuedTasks  []ActivityInfo `json:"queuedTasks,omitempty"`
	Lineage      []LineageItem  `json:"lineage,omitempty"`
	Programs     []NamedValue   `json:"programs,omitempty"` // task → external binding
	Violations   []Violation    `json:"violations,omitempty"`
}

// Violation is one engine invariant the instance breaks: the rule's name and
// what the engine's check saw.
type Violation struct {
	Rule   string `json:"rule"`
	Detail string `json:"detail"`
}

// NodeInfo is one node of the /api/cluster view.
type NodeInfo struct {
	Name    string  `json:"name"`
	OS      string  `json:"os,omitempty"`
	Up      bool    `json:"up"`
	CPUs    int     `json:"cpus"`
	Speed   float64 `json:"speed,omitempty"`
	Running int     `json:"running"`
	ExtLoad float64 `json:"extLoad,omitempty"`
}

// ClusterInfo is the /api/cluster response: directory state plus the
// engine's dispatcher depth and, when an adaptive monitor runs, the loads
// it last reported.
type ClusterInfo struct {
	Nodes       []NodeInfo `json:"nodes"`
	TotalCPUs   int        `json:"totalCpus"`
	BusySlots   int        `json:"busySlots"`
	RunningJobs int        `json:"runningJobs"`
	QueueDepth  int        `json:"queueDepth"`
	// HeldJobs is the part of QueueDepth that belongs to suspended
	// instances and cannot dispatch until they resume.
	HeldJobs int `json:"held"`

	Loads map[string]float64 `json:"reportedLoads,omitempty"`
	// Members is the federation membership view when the source runs
	// inside a federated server (see MemberLister); absent otherwise.
	Members []MemberView `json:"members,omitempty"`
}

// MemberView is one federation member as reported on /api/cluster.
type MemberView struct {
	Name        string `json:"name"`
	Addr        string `json:"addr,omitempty"`
	Incarnation uint64 `json:"incarnation"`
	Up          bool   `json:"up"`
	Partitions  []int  `json:"partitions,omitempty"`
}

// MemberLister is the optional Source extension federated servers
// implement; when present, /api/cluster includes the membership view.
type MemberLister interface {
	Members() []MemberView
}

// JobInfo is one activity hit by a hypothetical outage.
type JobInfo struct {
	Job      string `json:"job"`
	Instance string `json:"instance"`
	Scope    string `json:"scope"`
	Task     string `json:"task"`
	Node     string `json:"node,omitempty"`
	State    string `json:"state"` // "running" or "queued-affine"
}

// InstanceImpact summarizes one affected instance of a what-if query.
type InstanceImpact struct {
	ID       string  `json:"id"`
	Progress float64 `json:"progress"`
	Priority int     `json:"priority"`
}

// OutageReport is the /api/whatif response.
type OutageReport struct {
	Nodes         []string         `json:"nodes"`
	RemainingCPUs int              `json:"remainingCpus"`
	Jobs          []JobInfo        `json:"jobs,omitempty"`
	Stranded      []JobInfo        `json:"stranded,omitempty"`
	Instances     []InstanceImpact `json:"instances,omitempty"`
}

// Source supplies the monitor's snapshots. Implementations must be safe
// for concurrent use; core.MonitorSource adapts an Engine.
type Source interface {
	Instances() []InstanceSummary
	Instance(id string) (*InstanceDetail, error)
	Cluster() ClusterInfo
	WhatIf(nodes []string) OutageReport
}

// ServerConfig configures a monitor server. Source is required; Registry
// and Events each enable their endpoint when set.
type ServerConfig struct {
	Source   Source
	Registry *Registry
	Events   *Ring
}

// maxEventWait caps the /api/events long-poll.
const maxEventWait = 30 * time.Second

// Server serves /metrics and the JSON monitor API.
type Server struct {
	cfg  ServerConfig
	mux  *http.ServeMux
	ln   net.Listener
	srv  *http.Server
	done chan struct{} // closed when the Serve goroutine has exited
}

// NewServer builds a monitor server; call Start to listen or mount
// Handler yourself.
func NewServer(cfg ServerConfig) *Server {
	s := &Server{cfg: cfg, mux: http.NewServeMux()}
	s.mux.HandleFunc("/metrics", s.metrics)
	s.mux.HandleFunc("/api/instances", s.instances)
	s.mux.HandleFunc("/api/instances/", s.instance)
	s.mux.HandleFunc("/api/cluster", s.cluster)
	s.mux.HandleFunc("/api/whatif", s.whatIf)
	s.mux.HandleFunc("/api/events", s.events)
	return s
}

// Handler returns the server's routing handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr and serves in the background.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.mux}
	done := make(chan struct{})
	s.done = done
	go func() {
		defer close(done)
		_ = s.srv.Serve(ln)
	}()
	return nil
}

// Addr returns the bound listen address ("" before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener and any in-flight handlers, then joins the
// Serve goroutine so no monitor goroutine outlives the server.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	err := s.srv.Close()
	<-s.done
	return err
}

func (s *Server) metrics(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.Registry == nil {
		http.Error(w, "metrics registry not enabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.cfg.Registry.WriteProm(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) instances(w http.ResponseWriter, _ *http.Request) {
	list := s.cfg.Source.Instances()
	writeJSON(w, map[string]any{"instances": list})
}

func (s *Server) instance(w http.ResponseWriter, req *http.Request) {
	id := strings.TrimPrefix(req.URL.Path, "/api/instances/")
	if id == "" {
		writeJSONStatus(w, http.StatusBadRequest, map[string]string{"error": "missing instance id"})
		return
	}
	det, err := s.cfg.Source.Instance(id)
	if err != nil {
		writeJSONStatus(w, http.StatusNotFound, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, det)
}

func (s *Server) cluster(w http.ResponseWriter, _ *http.Request) {
	ci := s.cfg.Source.Cluster()
	if ml, ok := s.cfg.Source.(MemberLister); ok {
		ci.Members = ml.Members()
	}
	writeJSON(w, ci)
}

func (s *Server) whatIf(w http.ResponseWriter, req *http.Request) {
	nodes := req.URL.Query()["node"]
	if len(nodes) == 0 {
		writeJSONStatus(w, http.StatusBadRequest,
			map[string]string{"error": "whatif needs at least one ?node= parameter"})
		return
	}
	writeJSON(w, s.cfg.Source.WhatIf(nodes))
}

// events long-polls the ring: ?after=<seq> resumes a tail, ?max bounds the
// batch, ?waitMs bounds the poll (0 = return immediately).
func (s *Server) events(w http.ResponseWriter, req *http.Request) {
	if s.cfg.Events == nil {
		http.Error(w, "event ring not enabled", http.StatusNotFound)
		return
	}
	q := req.URL.Query()
	after, _ := strconv.ParseUint(q.Get("after"), 10, 64)
	max, _ := strconv.Atoi(q.Get("max"))
	wait := maxEventWait
	if ms, err := strconv.Atoi(q.Get("waitMs")); err == nil {
		wait = min(time.Duration(ms)*time.Millisecond, maxEventWait)
	}
	var evs []RingEvent
	var dropped uint64
	if wait > 0 {
		evs, dropped = s.cfg.Events.WaitSince(after, max, wait)
	} else {
		evs, dropped = s.cfg.Events.Since(after, max)
	}
	next := after
	if n := len(evs); n > 0 {
		next = evs[n-1].Seq
	}
	writeJSON(w, map[string]any{"events": evs, "next": next, "dropped": dropped})
}

func writeJSON(w http.ResponseWriter, v any) { writeJSONStatus(w, http.StatusOK, v) }

func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
