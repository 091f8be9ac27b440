package chain

// slabChunk is the number of transactions a TxSlab carves from one chunk.
const slabChunk = 256

// TxSlab hands out transactions and argument slices carved from chunks, so
// a workload source allocates per chunk instead of twice per transaction.
// A chunk stays reachable while anything carved from it is. The zero value
// is ready to use; it is not safe for concurrent use.
type TxSlab struct {
	txs  []Transaction
	args []string
}

// New copies tx into the slab and returns the copy.
func (s *TxSlab) New(tx Transaction) *Transaction {
	if len(s.txs) == 0 {
		s.txs = make([]Transaction, slabChunk)
	}
	p := &s.txs[0]
	*p = tx
	s.txs = s.txs[1:]
	return p
}

// Args returns a copy of vals with capacity equal to its length, so an
// append reallocates instead of overwriting the next transaction's Args.
func (s *TxSlab) Args(vals ...string) []string {
	if len(s.args) < len(vals) {
		s.args = make([]string, max(len(vals), 3*slabChunk))
	}
	a := s.args[:len(vals):len(vals)]
	s.args = s.args[len(vals):]
	copy(a, vals)
	return a
}
