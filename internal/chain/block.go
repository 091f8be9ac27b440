package chain

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"
)

// Hash is a 32-byte block or Merkle hash.
type Hash [32]byte

// String renders the hash as lowercase hex.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// MarshalJSON renders the hash as a hex string.
func (h Hash) MarshalJSON() ([]byte, error) {
	return json.Marshal(h.String())
}

// UnmarshalJSON parses a hex string.
func (h *Hash) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("chain: hash: %w", err)
	}
	raw, err := hex.DecodeString(s)
	if err != nil {
		return fmt.Errorf("chain: hash: %w", err)
	}
	if len(raw) != len(h) {
		return fmt.Errorf("chain: hash: want %d bytes, got %d", len(h), len(raw))
	}
	copy(h[:], raw)
	return nil
}

// Block is a committed batch of transactions on one shard. Non-sharded
// chains use shard 0 exclusively.
type Block struct {
	Shard     int           `json:"shard"`
	Height    uint64        `json:"height"`
	Timestamp time.Duration `json:"timestamp"`
	PrevHash  Hash          `json:"prev_hash"`
	TxRoot    Hash          `json:"tx_root"`
	BlockHash Hash          `json:"block_hash"`
	// Txs are the transactions included in order; Receipts align 1:1.
	Txs      []*Transaction `json:"txs"`
	Receipts []*Receipt     `json:"receipts"`
	// Proposer identifies the node that produced the block.
	Proposer string `json:"proposer"`
}

// Seal computes the Merkle root over the transaction IDs and the block hash
// over the header fields. Chains call it once the tx set is final.
func (b *Block) Seal() {
	level := make([]Hash, len(b.Txs))
	for i, tx := range b.Txs {
		level[i] = sha256.Sum256(tx.ID[:])
	}
	b.TxRoot = reduceMerkle(level)

	h := sha256.New()
	var u [8]byte
	binary.BigEndian.PutUint64(u[:], uint64(b.Shard))
	h.Write(u[:])
	binary.BigEndian.PutUint64(u[:], b.Height)
	h.Write(u[:])
	binary.BigEndian.PutUint64(u[:], uint64(b.Timestamp))
	h.Write(u[:])
	h.Write(b.PrevHash[:])
	h.Write(b.TxRoot[:])
	h.Write([]byte(b.Proposer))
	h.Sum(b.BlockHash[:0])
}

// CommittedIDs returns the IDs of transactions whose receipt says committed.
func (b *Block) CommittedIDs() []TxID {
	ids := make([]TxID, 0, len(b.Receipts))
	for _, r := range b.Receipts {
		if r.Status == StatusCommitted {
			ids = append(ids, r.TxID)
		}
	}
	return ids
}

// MerkleRoot computes a binary SHA-256 Merkle root over the leaves. An odd
// node at any level is paired with itself; zero leaves hash to the empty
// root.
func MerkleRoot(leaves [][]byte) Hash {
	level := make([]Hash, len(leaves))
	for i, leaf := range leaves {
		level[i] = sha256.Sum256(leaf)
	}
	return reduceMerkle(level)
}

// reduceMerkle folds hashed leaves up to the root in place: the parent of
// nodes i and i+1 lands in slot i/2, which the fold has already read.
func reduceMerkle(level []Hash) Hash {
	if len(level) == 0 {
		return sha256.Sum256(nil)
	}
	var pair [64]byte
	for len(level) > 1 {
		for i := 0; i < len(level); i += 2 {
			j := i + 1
			if j == len(level) {
				j = i
			}
			copy(pair[:32], level[i][:])
			copy(pair[32:], level[j][:])
			level[i/2] = sha256.Sum256(pair[:])
		}
		level = level[:(len(level)+1)/2]
	}
	return level[0]
}
