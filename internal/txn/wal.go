package txn

import (
	"bytes"
	"fmt"
	"sync"
)

// RecordType classifies log records.
type RecordType int

// The WAL record types.  RecCLR is a compensation log record: the logged
// image of one undo action performed by an abort.  CLRs are redo-only —
// replaying them re-performs the rollback, so recovery never undoes an
// aborted transaction a second time.
const (
	RecBegin RecordType = iota
	RecUpdate
	RecCommit
	RecAbort
	RecCLR
)

var recordNames = [...]string{
	RecBegin: "BEGIN", RecUpdate: "UPDATE", RecCommit: "COMMIT", RecAbort: "ABORT",
	RecCLR: "CLR",
}

// String returns the record type's name.
func (t RecordType) String() string {
	if t < 0 || int(t) >= len(recordNames) {
		return fmt.Sprintf("RecordType(%d)", int(t))
	}
	return recordNames[t]
}

// Record is one WAL entry.  Update records carry physical before/after
// images, enabling both redo and undo.  A nil image and an empty one
// differ: nil is absence, []byte{} is a present empty value, so every
// copy of an image goes through bytes.Clone, which keeps the two apart.
type Record struct {
	LSN    uint64
	Type   RecordType
	TxID   uint64
	Key    string
	Before []byte // nil means the key did not exist
	After  []byte // nil means the key is deleted
}

// WAL is the stable log.  In this simulated platform "stable" means it
// survives Crash(); the volatile store does not.
type WAL struct {
	mu      sync.Mutex
	records []Record
	nextLSN uint64
}

// NewWAL returns an empty log.
func NewWAL() *WAL {
	return &WAL{nextLSN: 1}
}

// Append force-writes a record and returns its LSN.
func (w *WAL) Append(r Record) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	r.LSN = w.nextLSN
	w.nextLSN++
	w.records = append(w.records, r)
	return r.LSN
}

// Records returns a copy of the log.
func (w *WAL) Records() []Record {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]Record(nil), w.records...)
}

// Len reports the number of records.
func (w *WAL) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.records)
}

// KV is a recoverable key-value store: mutations go through transactions,
// every update is logged before it is applied (write-ahead rule), and
// after a crash Recover rebuilds exactly the committed state.
type KV struct {
	wal *WAL

	mu  sync.Mutex
	mem map[string][]byte
	// inTx tracks which transactions have logged a Begin.
	inTx map[uint64]bool
}

// NewKV returns an empty recoverable store with its own log.
func NewKV() *KV {
	return &KV{wal: NewWAL(), mem: make(map[string][]byte), inTx: make(map[uint64]bool)}
}

// WAL exposes the store's log.
func (kv *KV) WAL() *WAL { return kv.wal }

// Get reads a key from the volatile store.
func (kv *KV) Get(key string) ([]byte, bool) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	v, ok := kv.mem[key]
	if !ok {
		return nil, false
	}
	return bytes.Clone(v), true
}

// Len reports the number of live keys.
func (kv *KV) Len() int {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	return len(kv.mem)
}

// Put writes key=val under tx.  Passing val nil deletes the key.
func (kv *KV) Put(tx *Tx, key string, val []byte) error {
	if err := tx.ensureActive(); err != nil {
		return err
	}
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if !kv.inTx[tx.ID()] {
		kv.wal.Append(Record{Type: RecBegin, TxID: tx.ID()})
		kv.inTx[tx.ID()] = true
	}
	kv.wal.Append(Record{Type: RecUpdate, TxID: tx.ID(), Key: key,
		Before: bytes.Clone(kv.mem[key]), After: bytes.Clone(val)})
	kv.apply(key, val)
	return nil
}

// Commit logs the transaction's commit.  The caller still calls
// tx.Commit to release locks.
func (kv *KV) Commit(tx *Tx) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if kv.inTx[tx.ID()] {
		kv.wal.Append(Record{Type: RecCommit, TxID: tx.ID()})
		delete(kv.inTx, tx.ID())
	}
}

// Abort undoes the transaction's updates from the log (newest first),
// logging a compensation record for every undo action, and then logs the
// abort.
func (kv *KV) Abort(tx *Tx) {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if !kv.inTx[tx.ID()] {
		return
	}
	recs := kv.wal.Records()
	for i := len(recs) - 1; i >= 0; i-- {
		r := recs[i]
		if r.Type != RecUpdate || r.TxID != tx.ID() {
			continue
		}
		kv.wal.Append(Record{Type: RecCLR, TxID: tx.ID(), Key: r.Key,
			Before: bytes.Clone(kv.mem[r.Key]), After: bytes.Clone(r.Before)})
		kv.apply(r.Key, r.Before)
	}
	kv.wal.Append(Record{Type: RecAbort, TxID: tx.ID()})
	delete(kv.inTx, tx.ID())
}

// Crash discards the volatile store, simulating a failure.  The log
// survives.
func (kv *KV) Crash() {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	kv.mem = make(map[string][]byte)
	kv.inTx = make(map[uint64]bool)
}

// Recover rebuilds the store from the log: redo every update in LSN
// order, then undo the updates of transactions without a commit record,
// newest first (ARIES analysis/redo/undo over physical images).
func (kv *KV) Recover() {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	recs := kv.wal.Records()

	committed := make(map[uint64]bool)
	aborted := make(map[uint64]bool)
	for _, r := range recs {
		switch r.Type {
		case RecCommit:
			committed[r.TxID] = true
		case RecAbort:
			aborted[r.TxID] = true
		}
	}

	kv.mem = make(map[string][]byte)
	// Redo phase: repeat history, including compensation records — their
	// replay re-performs the rollbacks aborts already did.
	for _, r := range recs {
		if r.Type != RecUpdate && r.Type != RecCLR {
			continue
		}
		kv.apply(r.Key, r.After)
	}
	// Undo phase: roll back the losers — transactions with neither a
	// commit nor an abort record (in flight at the crash).  Aborted
	// transactions are already compensated by their CLRs.
	for i := len(recs) - 1; i >= 0; i-- {
		r := recs[i]
		if r.Type != RecUpdate || committed[r.TxID] || aborted[r.TxID] {
			continue
		}
		kv.apply(r.Key, r.Before)
	}
	kv.inTx = make(map[uint64]bool)
}

// apply installs an image in the volatile store: a nil image deletes the
// key, any other (including an empty one) stores a private copy.  The
// caller holds kv.mu.
func (kv *KV) apply(key string, image []byte) {
	if image == nil {
		delete(kv.mem, key)
	} else {
		kv.mem[key] = bytes.Clone(image)
	}
}
