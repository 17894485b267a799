// failover.go implements the fault-tolerance side of the store (the paper's
// Section 5.2/5.3: replication for reliability, Kubernetes-style fail-over
// when nodes disappear): node health state, replica fail-over on reads, and
// re-replication accounting after a failure.
package objstore

import (
	"fmt"
	"sort"
	"time"

	"dscs/internal/units"
)

// Health is one storage node's availability state.
type Health int

// Node health states.
const (
	Healthy Health = iota
	Down
)

// FailNode marks a node unavailable; reads fail over to the surviving
// replicas and DSCSReplica stops offering the node.
func (s *Store) FailNode(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.byID[id]
	if !ok {
		return fmt.Errorf("objstore: no such node %q", id)
	}
	n.health = Down
	return nil
}

// RecoverNode marks a node healthy again.
func (s *Store) RecoverNode(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.byID[id]
	if !ok {
		return fmt.Errorf("objstore: no such node %q", id)
	}
	n.health = Healthy
	return nil
}

// healthy reports whether the node serves traffic.
func (n *Node) healthy() bool { return n.health == Healthy }

// GetWithFailover reads an object, skipping failed replicas: the client
// retries the next replica after a timeout-scale penalty per dead node.
// It fails only when every replica of some chunk is down.
func (s *Store) GetWithFailover(key string, q float64) (time.Duration, units.Energy, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	obj, ok := s.objects[key]
	if !ok {
		return 0, 0, fmt.Errorf("objstore: no such key %q", key)
	}
	rng := s.stream(q)
	const retryPenalty = 2 * time.Millisecond // health-probe + retry cost
	var total time.Duration
	var energy units.Energy
	for _, chunk := range obj.Chunks {
		served := false
		start := int(hashKey(key, chunk.Index) % uint64(len(chunk.Replicas)))
		for attempt := 0; attempt < len(chunk.Replicas); attempt++ {
			rep := chunk.Replicas[(start+attempt)%len(chunk.Replicas)]
			n := s.byID[rep.NodeID]
			if !n.healthy() {
				total += retryPenalty
				continue
			}
			devLat, devEnergy := n.hostRead(rep.Offset, chunk.Size)
			energy += devEnergy
			total += requestPathCost(s.cfg, chunk.Size) +
				s.fabricLatency(chunk.Size, q, rng) + devLat
			served = true
			break
		}
		if !served {
			return total, energy, fmt.Errorf(
				"objstore: all %d replicas of %q chunk %d are down",
				len(chunk.Replicas), key, chunk.Index)
		}
	}
	return total, energy, nil
}

// DSCSReplicaHealthy is DSCSReplica restricted to healthy nodes: when the
// DSCS drive holding the data is down, in-storage execution is impossible
// and the caller falls back to conventional execution (Section 5.3).
func (s *Store) DSCSReplicaHealthy(key string) (node *Node, offset int64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, off, found := s.dscsReplica(key)
	if !found || !n.healthy() {
		return nil, 0, false
	}
	return n, off, true
}

// ReReplicate restores the replication factor of every object that lost a
// replica on the failed node: each affected chunk is copied from a healthy
// replica to a healthy node not already holding it. It returns the number
// of chunks moved and the total bytes copied (the background repair
// traffic a real store would schedule). Objects are repaired in key order,
// so the repair targets and offsets are a function of the store's state
// alone — a seeded replay that fails a populated drive reproduces.
func (s *Store) ReReplicate(failedID string) (chunks int, moved units.Bytes, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	failed, ok := s.byID[failedID]
	if !ok {
		return 0, 0, fmt.Errorf("objstore: no such node %q", failedID)
	}
	keys := make([]string, 0, len(s.objects))
	for k := range s.objects {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		obj := s.objects[k]
		for ci := range obj.Chunks {
			chunk := &obj.Chunks[ci]
			idx := -1
			holders := map[string]bool{}
			for ri, rep := range chunk.Replicas {
				holders[rep.NodeID] = true
				if rep.NodeID == failed.ID {
					idx = ri
				}
			}
			if idx < 0 {
				continue
			}
			// A repair is a copy, and a copy needs a healthy source: with
			// every surviving replica of this chunk also down there is
			// nothing to read from, and "repairing" anyway would fabricate
			// a replica out of thin air.
			source := false
			for id := range holders {
				if id != failed.ID && s.byID[id].healthy() {
					source = true
					break
				}
			}
			if !source {
				return chunks, moved, fmt.Errorf(
					"objstore: no healthy source replica of %q chunk %d to repair from", obj.Key, chunk.Index)
			}
			target := s.pickRepairTarget(obj, holders)
			if target == nil {
				return chunks, moved, fmt.Errorf(
					"objstore: no healthy target to repair %q chunk %d", obj.Key, chunk.Index)
			}
			off := target.nextOffset
			target.nextOffset += int64(s.cfg.ChunkSize)
			// The arbitration-aware path: a repair write against a
			// DSCS-Drive whose DSA is mid-execution pays the same penalty
			// as any other conventional I/O.
			target.hostWrite(off, chunk.Size)
			chunk.Replicas[idx] = Replica{NodeID: target.ID, Offset: off}
			chunks++
			moved += chunk.Size
		}
	}
	return chunks, moved, nil
}

// pickRepairTarget chooses a healthy node that does not already hold the
// chunk, preferring a DSCS node for acceleratable objects that lost their
// DSCS replica.
func (s *Store) pickRepairTarget(obj *Object, holders map[string]bool) *Node {
	needDSCS := obj.Acceleratable
	if needDSCS {
		for id := range holders {
			if n := s.byID[id]; n.Kind == DSCSDrive && n.healthy() {
				needDSCS = false // still covered by a healthy DSCS replica
			}
		}
	}
	var fallback *Node
	for _, n := range s.nodes {
		if !n.healthy() || holders[n.ID] {
			continue
		}
		if needDSCS && n.Kind == DSCSDrive {
			return n
		}
		if fallback == nil {
			fallback = n
		}
	}
	return fallback
}

// HealthyNodes counts nodes currently serving.
func (s *Store) HealthyNodes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := 0
	for _, n := range s.nodes {
		if n.healthy() {
			c++
		}
	}
	return c
}
