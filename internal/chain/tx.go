// Package chain defines the common ledger vocabulary shared by every
// simulated blockchain in this repository: transactions, blocks, receipts,
// world state with version metadata (for MVCC validation), contracts and the
// generic system-under-test interface that the Hammer framework drives
// through its RPC layer.
package chain

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"
)

// TxID is the content hash of a transaction. It is the key the evaluation
// framework uses to match submitted transactions against committed blocks.
type TxID [32]byte

// String renders the ID as lowercase hex.
func (id TxID) String() string { return hex.EncodeToString(id[:]) }

// Short returns the first 8 hex characters, for logs.
func (id TxID) Short() string { return hex.EncodeToString(id[:4]) }

// MarshalJSON renders the ID as a hex string.
func (id TxID) MarshalJSON() ([]byte, error) {
	return json.Marshal(id.String())
}

// UnmarshalJSON parses a hex string.
func (id *TxID) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("chain: tx id: %w", err)
	}
	parsed, err := ParseTxID(s)
	if err != nil {
		return err
	}
	*id = parsed
	return nil
}

// ParseTxID decodes a 64-character hex string into a TxID.
func ParseTxID(s string) (TxID, error) {
	var id TxID
	b, err := hex.DecodeString(s)
	if err != nil {
		return id, fmt.Errorf("chain: parse tx id: %w", err)
	}
	if len(b) != len(id) {
		return id, fmt.Errorf("chain: parse tx id: want %d bytes, got %d", len(id), len(b))
	}
	copy(id[:], b)
	return id, nil
}

// Transaction is a signed invocation of a contract operation. The ClientID
// and ServerID fields mirror the paper's c_id / s_id (Algorithm 1), used for
// flood protection and per-client/server load accounting.
type Transaction struct {
	// ID is the content hash; zero until ComputeID or Seal is called.
	ID TxID `json:"id"`
	// ClientID identifies the workload-generating client (paper: c_id).
	ClientID string `json:"client_id"`
	// ServerID identifies the submitting Hammer server (paper: s_id).
	ServerID string `json:"server_id"`
	// Chain and Contract name the target ledger and smart contract.
	Chain    string `json:"chain"`
	Contract string `json:"contract"`
	// Op is the contract operation (e.g. "transfer" for SmallBank).
	Op string `json:"op"`
	// Args are the operation arguments, contract-defined.
	Args []string `json:"args"`
	// From is the sender account; Nonce orders its transactions.
	From  string `json:"from"`
	Nonce uint64 `json:"nonce"`
	// Gas is the execution budget charged against a block's gas cap
	// (Ethereum-like chains).
	Gas uint64 `json:"gas"`
	// Signature and PubKey carry the ECDSA signature over the ID.
	Signature []byte `json:"signature,omitempty"`
	PubKey    []byte `json:"pubkey,omitempty"`
	// SubmittedAt is the virtual time at which the framework sent the
	// transaction; it is bookkeeping for the evaluation, not part of the
	// signed payload.
	SubmittedAt time.Duration `json:"submitted_at"`
}

// Encode renders the signed payload deterministically. The ID, signature and
// submission timestamp are excluded.
func (t *Transaction) Encode() []byte {
	return t.AppendEncode(make([]byte, 0, t.encodedLen()))
}

// AppendEncode appends the Encode payload to dst and returns the extended
// slice, so callers that own a buffer encode without allocating.
func (t *Transaction) AppendEncode(dst []byte) []byte {
	dst = appendStr(dst, t.ClientID)
	dst = appendStr(dst, t.ServerID)
	dst = appendStr(dst, t.Chain)
	dst = appendStr(dst, t.Contract)
	dst = appendStr(dst, t.Op)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(t.Args)))
	for _, a := range t.Args {
		dst = appendStr(dst, a)
	}
	dst = appendStr(dst, t.From)
	dst = binary.BigEndian.AppendUint64(dst, t.Nonce)
	return binary.BigEndian.AppendUint64(dst, t.Gas)
}

// encodedLen is len(t.Encode()): a 4-byte length prefix per string, the
// 4-byte argument count, and the two 8-byte integers.
func (t *Transaction) encodedLen() int {
	n := 6*4 + 4 + 2*8 + len(t.ClientID) + len(t.ServerID) + len(t.Chain) +
		len(t.Contract) + len(t.Op) + len(t.From)
	for _, a := range t.Args {
		n += 4 + len(a)
	}
	return n
}

func appendStr(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// idBufSize is the stack buffer ComputeID encodes into. A SmallBank
// transaction needs about 120 bytes; larger payloads spill to the heap.
const idBufSize = 256

// ComputeID hashes the signed payload and stores the result in ID.
func (t *Transaction) ComputeID() TxID {
	var buf [idBufSize]byte
	t.ID = sha256.Sum256(t.AppendEncode(buf[:0]))
	return t.ID
}

// TxStatus is the lifecycle state of a transaction as observed by the
// evaluation framework.
type TxStatus int

// Transaction lifecycle states. Values start at 1 so the zero value is
// detectably invalid.
const (
	StatusPending TxStatus = iota + 1
	StatusCommitted
	StatusAborted
	StatusRejected
	// StatusTimedOut marks a transaction the evaluation driver gave up on:
	// it may still commit on-chain later, but the framework reports it
	// failed — the client-timeout measurement artifact behind the paper's
	// §V-D observations.
	StatusTimedOut
)

// String implements fmt.Stringer.
func (s TxStatus) String() string {
	switch s {
	case StatusPending:
		return "pending"
	case StatusCommitted:
		return "committed"
	case StatusAborted:
		return "aborted"
	case StatusRejected:
		return "rejected"
	case StatusTimedOut:
		return "timed_out"
	default:
		return fmt.Sprintf("TxStatus(%d)", int(s))
	}
}

// Receipt records the outcome of a transaction inside a block.
type Receipt struct {
	TxID      TxID          `json:"tx_id"`
	Status    TxStatus      `json:"status"`
	Shard     int           `json:"shard"`
	Height    uint64        `json:"height"`
	BlockTime time.Duration `json:"block_time"`
	// Err holds the abort reason, if any.
	Err string `json:"err,omitempty"`
}
