package fed

import (
	"bioopera/internal/obs"
)

// Routed-RPC outcome labels.
const (
	outcomeOK        = "ok"
	outcomeRedirect  = "redirect"
	outcomeOwnerDown = "owner-down"
	outcomeError     = "error"
)

// fedMetrics pre-resolves the federation's instrumentation handles; every
// handle is nil-safe, so a nil registry disables the lot at zero cost.
type fedMetrics struct {
	rpcOK        *obs.Counter // routed RPCs answered by the owner
	rpcRedirect  *obs.Counter // redirects and not-ready answers: ownership moved or is moving
	rpcOwnerDown *obs.Counter // routed RPCs that hit a dead member
	rpcError     *obs.Counter // routed RPCs that failed outright
	transfers    *obs.Counter // partitions claimed from another owner
	failoverSec  *obs.Histogram
}

func newFedMetrics(r *obs.Registry) *fedMetrics {
	if r == nil {
		return &fedMetrics{}
	}
	rpc := r.CounterVec("bioopera_fed_routed_rpcs_total",
		"Federation RPCs routed by outcome.", "outcome")
	return &fedMetrics{
		rpcOK:        rpc.With(outcomeOK),
		rpcRedirect:  rpc.With(outcomeRedirect),
		rpcOwnerDown: rpc.With(outcomeOwnerDown),
		rpcError:     rpc.With(outcomeError),
		transfers: r.Counter("bioopera_fed_ownership_transfers_total",
			"Partition leases claimed from another owner (failover adoptions)."),
		failoverSec: r.Histogram("bioopera_fed_failover_seconds",
			"Wall time from declaring a member dead to its partitions being reclaimed and recovered.",
			[]float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}),
	}
}

// registerOwnedGauge exposes the member's partition count; nil registry is
// a no-op.
func registerOwnedGauge(r *obs.Registry, member string, fn func() float64) {
	if r == nil {
		return
	}
	r.GaugeFuncWith("bioopera_fed_partitions_owned",
		"Ownership partitions currently held, by member.", "member", member, fn)
}
