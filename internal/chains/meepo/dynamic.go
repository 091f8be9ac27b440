package meepo

import (
	"strings"

	"hammer/internal/chain"
	"hammer/internal/chains/basechain"
)

// Dynamic shard reconfiguration (paper §II-A2: "the network dynamically
// forms new shards to optimize performance"). Two triggers share one
// mechanism:
//
//   - load pressure: when every active shard's admission queue has sat above
//     SplitBacklogFrac of its cap for SplitPatience consecutive epochs, the
//     active shard count doubles (up to MaxShards);
//   - the Config.Reshard timeline: explicit join/leave steps at fixed
//     virtual-time offsets, in either direction.
//
// Either way the chain enters a reconfiguration barrier: epoch cutting
// pauses, in-flight batches drain, and resize executes on a quiesced
// network — so no in-flight write can land on a stale shard. Departing
// shards keep their sealed ledgers (heights pause, preserving the recorder's
// contiguity invariant) and hand their queues, cross-epoch inboxes and
// world-state keys to the surviving shards under the new hash partition.

// maybeReshard is called from the epoch ticker.
func (c *Chain) maybeReshard() {
	if c.reconfiguring {
		for _, ss := range c.shards {
			if ss.inflight > 0 {
				return // still draining
			}
		}
		c.resize(c.reshardTarget)
		c.reconfiguring = false
		c.reshardTarget = 0
		return
	}
	if !c.cfg.DynamicSharding || c.active >= c.cfg.MaxShards {
		return
	}
	// Pressure check: all active shards persistently loaded.
	threshold := int(c.cfg.SplitBacklogFrac * float64(c.cfg.PendingCapPerShard))
	if threshold < 1 {
		threshold = 1
	}
	for _, ss := range c.shards[:c.active] {
		if len(ss.queue)+ss.inflight < threshold {
			c.splitPressure = 0
			return
		}
	}
	c.splitPressure++
	if c.splitPressure >= c.cfg.SplitPatience {
		c.splitPressure = 0
		c.requestResize(c.active * 2)
	}
}

// requestResize asks for a reconfiguration to the given active shard count,
// clamped to [1, MaxShards]. The resize itself runs on a later epoch tick,
// once in-flight batches have drained; if several requests land while
// draining, the last one wins.
func (c *Chain) requestResize(target int) {
	if target < 1 {
		target = 1
	}
	if target > c.cfg.MaxShards {
		target = c.cfg.MaxShards
	}
	if target == c.active && !c.reconfiguring {
		return
	}
	c.reshardTarget = target
	c.reconfiguring = true
}

// resize sets the active shard count and re-homes queues, inboxes and state
// under the new hash partition. It runs only on a quiesced chain (no epoch
// batches in flight).
func (c *Chain) resize(target int) {
	if target == c.active {
		return
	}
	for len(c.shards) < target {
		sh := c.AddShard()
		c.shards = append(c.shards, &shardState{
			state:  chain.NewStateFrom(c.cfg.State),
			exec:   newShardExec(c),
			leader: member(sh, 0),
		})
		for j := 0; j < c.cfg.MembersPerShard; j++ {
			c.RegisterNodes(member(sh, j))
		}
	}
	c.active = target
	c.resharded++

	// Re-home across every shard ever created: a shrinking step must empty
	// the departing shards, and a growing step re-balances the survivors.
	for j, src := range c.shards {
		// Queued transactions move by their routing account.
		keep := src.queue[:0]
		for _, tx := range src.queue {
			owner := tx.From
			if owner == "" && len(tx.Args) > 0 {
				owner = tx.Args[0]
			}
			if dst := c.ShardOf(owner); dst != j {
				c.shards[dst].queue = append(c.shards[dst].queue, tx)
			} else {
				keep = append(keep, tx)
			}
		}
		src.queue = keep

		// Pending cross-epoch credits move by their destination account.
		keepInbox := src.inbox[:0]
		for _, cw := range src.inbox {
			if dst := c.ShardOf(accountOfKey(cw.toKey)); dst != j {
				c.shards[dst].inbox = append(c.shards[dst].inbox, cw)
			} else {
				keepInbox = append(keepInbox, cw)
			}
		}
		src.inbox = keepInbox

		// World-state keys migrate to their owning account's new home.
		for _, key := range src.state.Keys() {
			account := accountOfKey(key)
			dst := c.ShardOf(account)
			if dst == j {
				continue
			}
			val, ver, ok := src.state.Get(key)
			if !ok {
				continue
			}
			c.shards[dst].state.Set(key, val, ver)
			src.state.Delete(key)
		}
	}
}

// accountOfKey strips the balance prefix ("c:", "s:", "y:") from a state
// key, recovering the owning account for routing.
func accountOfKey(key string) string {
	if i := strings.IndexByte(key, ':'); i >= 0 {
		return key[i+1:]
	}
	return key
}

// Resharded reports how many reconfigurations (splits, joins or leaves) have
// occurred.
func (c *Chain) Resharded() int { return c.resharded }

// newShardExec keeps resize() readable; it mirrors the constructor's
// per-shard wiring.
func newShardExec(c *Chain) *basechain.Compute {
	// The new chain shard's compute timers ride the scheduler shard
	// matching its index, like the constructor's wiring.
	return basechain.NewComputeKey(c.Sched, 1, uint64(len(c.shards)))
}
