// Package fed federates N engine servers into one BioOpera cluster: each
// member owns a partition of the instance-ID space, a thin gateway routes
// driver RPCs to the owning member over internal/transport (the link layer
// the worker protocol and log shipping also run on), and server-level failover
// promotes the worker-lease mechanism to whole servers — when a member's
// heartbeats lapse, the designated peer claims its partitions' leases
// under a new incarnation and adopts its instances through the engine's
// partition-scoped Recover.
//
// Ownership has two layers:
//
//   - Placement is rendezvous hashing over the live membership view (the
//     peers the failure detector believes up, plus self): every member computes the
//     same successor for a partition from the same view, so orphaned
//     partitions converge on one claimant without coordination.
//   - Authority is a lease per partition, persisted in the store's
//     configuration space (LeaseTable). A claim is a compare-and-swap
//     against the last observed lease under a fresh incarnation from a
//     monotonic epoch counter; stale incarnations are rejected, so a
//     partitioned ex-owner cannot overwrite its successor (split-brain
//     fencing), and racing claimants resolve to exactly one winner.
//
// Ownership is sticky for busy partitions: a live owner is never
// preempted, and instances never migrate between live members. Idle
// partitions rebalance — an owner hands an empty partition back to the
// pool (lease to unclaimed, fresh incarnation) when a live peer is its
// rendezvous successor, so members joining after the first claims still
// pick up a fair share.
//
// Time comes from one sim.Clock, the package's clk: the members' heartbeat
// and failure detector, the clients' call deadlines and the gateway's retry
// waits all read it, so a test that swaps in a clock it drives can hold a
// failover window open and replay it.
//
// Instance IDs mint as "f<partition>-<member>.<epoch>-<seq>": the
// partition routes without any lookup, the member names where the
// instance lives (shared-nothing deployments route to the minting member
// while it is alive), and the boot epoch keeps IDs unique across member
// restarts.
package fed

import (
	"fmt"
	"strconv"
	"strings"

	"bioopera/internal/sim"
)

// clk is the package's one source of time.
var clk = sim.NewWall()

// DefaultPartitions is the ownership partition count when a Config leaves
// it zero. All members of one federation must agree on the count.
const DefaultPartitions = 16

// fnv64 hashes a string with FNV-1a, the same family the engine's shard
// table uses.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// MintID builds a partition-encoded instance ID. seq is per (member,
// epoch); epoch is the member's boot incarnation, so a restarted member
// can never re-mint an ID already in the store.
func MintID(partition int, member string, epoch, seq uint64) string {
	return fmt.Sprintf("f%02d-%s.%d-%06d", partition, member, epoch, seq)
}

// PartitionOf maps an instance ID to its ownership partition. Minted IDs
// carry the partition explicitly; any other ID (the single-server "p0001"
// form) hashes, so a federation can adopt a store written by a
// standalone engine.
func PartitionOf(id string, partitions int) int {
	if partitions <= 0 {
		partitions = DefaultPartitions
	}
	if len(id) > 1 && id[0] == 'f' {
		if dash := strings.IndexByte(id, '-'); dash > 1 {
			if p, err := strconv.Atoi(id[1:dash]); err == nil && p >= 0 {
				return p % partitions
			}
		}
	}
	return int(fnv64(id) % uint64(partitions))
}

// MemberOf extracts the minting member from a partition-encoded ID ("" for
// foreign forms). Shared-nothing gateways prefer it over the partition
// route while the member is alive, because the instance's records exist
// only in that member's store.
func MemberOf(id string) string {
	if len(id) < 2 || id[0] != 'f' {
		return ""
	}
	dash := strings.IndexByte(id, '-')
	if dash < 0 {
		return ""
	}
	rest := id[dash+1:]
	dot := strings.LastIndexByte(rest, '.')
	if dot <= 0 {
		return ""
	}
	return rest[:dot]
}

// SuccessorOf picks the partition's owner among the live members by
// rendezvous (highest-random-weight) hashing: every member scoring the
// same live set picks the same winner, and a member's death moves only its
// own partitions. Ties break on the lexically smaller name so the choice
// is total. Returns "" for an empty live set.
func SuccessorOf(partition int, live []string) string {
	var (
		best      string
		bestScore uint64
	)
	for _, name := range live {
		// Partition first: FNV-1a avalanches a difference through every
		// byte that follows it, so leading with the partition spreads
		// partitions across members; trailing with it would let the name
		// bytes dominate the score.
		score := fnv64(fmt.Sprintf("%d#%s", partition, name))
		if best == "" || score > bestScore || (score == bestScore && name < best) {
			best, bestScore = name, score
		}
	}
	return best
}
