package fed

import (
	"bioopera/internal/core"
	"bioopera/internal/obs"
)

// MonitorSource adapts a federated member to obs.Source plus the
// obs.MemberLister extension, so the member's /api/cluster shows both its
// local engine view and the federation membership.
type MonitorSource struct {
	*core.MonitorSource
	m *Member
}

// NewMonitorSource builds the member's monitor source.
func NewMonitorSource(m *Member) *MonitorSource {
	return &MonitorSource{
		MonitorSource: core.NewMonitorSource(m.Runtime().Engine()),
		m:             m,
	}
}

// Members implements obs.MemberLister with the member's gossip view.
func (s *MonitorSource) Members() []obs.MemberView {
	return s.m.memberViews(true)
}

// GatewaySource adapts a gateway to obs.Source: instance queries are empty
// (the gateway holds no instances), the cluster view carries the routed
// membership. It lets a gateway process expose /api/cluster and /metrics.
type GatewaySource struct {
	g *Gateway
}

// NewGatewaySource builds the gateway's monitor source.
func NewGatewaySource(g *Gateway) *GatewaySource { return &GatewaySource{g: g} }

// Instances reports nothing: the gateway runs no engine.
func (s *GatewaySource) Instances() []obs.InstanceSummary { return nil }

// Instance reports unknown for every ID; clients query the owner.
func (s *GatewaySource) Instance(id string) (*obs.InstanceDetail, error) {
	return nil, core.ErrUnknownInstance
}

// Cluster reports only the membership view.
func (s *GatewaySource) Cluster() obs.ClusterInfo { return obs.ClusterInfo{} }

// WhatIf reports an empty outage: the gateway schedules nothing.
func (s *GatewaySource) WhatIf(nodes []string) obs.OutageReport { return obs.OutageReport{} }

// Members implements obs.MemberLister with the gateway's routing view.
func (s *GatewaySource) Members() []obs.MemberView {
	view, err := s.g.Members()
	if err != nil {
		return nil
	}
	return view.Members
}
