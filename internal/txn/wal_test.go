package txn

import (
	"bytes"
	"fmt"
	"testing"
)

// TestKVEmptyValueSurvivesRecovery pins that an empty value is a present
// key, not a delete: before a crash, after Recover, and when an abort
// restores it as a before image.
func TestKVEmptyValueSurvivesRecovery(t *testing.T) {
	m := NewManager()
	kv := NewKV()
	tx := m.Begin()
	if err := kv.Put(tx, "k", []byte{}); err != nil {
		t.Fatal(err)
	}
	kv.Commit(tx)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		v, ok := kv.Get("k")
		if !ok || v == nil || len(v) != 0 {
			t.Fatalf("%s: Get(k) = %q, %v; want a present empty value", when, v, ok)
		}
	}
	check("before the crash")
	kv.Crash()
	kv.Recover()
	check("after recovery")

	// An aborted overwrite must restore the empty value, not delete it.
	tx = m.Begin()
	if err := kv.Put(tx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	kv.Abort(tx)
	tx.Abort()
	check("after the abort")
	kv.Crash()
	kv.Recover()
	check("after recovering the abort")

	// A loser in flight at the crash is undone to the empty value too.
	tx = m.Begin()
	if err := kv.Put(tx, "k", nil); err != nil {
		t.Fatal(err)
	}
	kv.Crash()
	kv.Recover()
	check("after undoing a loser")
}

// walModel is the reference state for FuzzWALRecovery: the committed
// transactions' writes applied in commit order.  A nil value is a delete.
type walModel map[string][]byte

func (m walModel) apply(writes []walWrite) {
	for _, w := range writes {
		if w.val == nil {
			delete(m, w.key)
		} else {
			m[w.key] = w.val
		}
	}
}

type walWrite struct {
	key string
	val []byte
}

// walTx is one transaction the fuzz driver issued: its writes and the log
// length right after its COMMIT record (0 when it never committed).
type walTx struct {
	writes    []walWrite
	committed int
}

// FuzzWALRecovery drives a random stream of puts, deletes, empty-value
// puts, commits and aborts through a KV, crashes at the end of the stream
// (leaving the open transaction in flight), tears the log at a random
// record, and recovers.  The recovered store must equal the model of the
// transactions whose COMMIT record survived the tear; a second
// crash+recover must not change it.
//
// Transactions run one at a time, as the KV's physical undo assumes
// conflicting writers are serialized by the lock manager.
func FuzzWALRecovery(f *testing.F) {
	f.Add([]byte{0, 5, 6, 13, 7, 4, 6}, uint16(0xffff))
	f.Add([]byte{5, 6, 1, 7, 2, 4}, uint16(3))
	f.Add([]byte{8, 16, 24, 6, 12, 21, 7, 5}, uint16(7))
	f.Fuzz(func(t *testing.T, ops []byte, cut uint16) {
		m := NewManager()
		kv := NewKV()
		var txs []walTx
		var tx *Tx
		var cur walTx
		for i, b := range ops {
			if tx == nil {
				tx = m.Begin()
				cur = walTx{}
			}
			key := fmt.Sprintf("k%d", (b>>3)%4)
			switch b % 8 {
			case 0, 1, 2, 3:
				val := []byte(fmt.Sprintf("v%d", i))
				if err := kv.Put(tx, key, val); err != nil {
					t.Fatal(err)
				}
				cur.writes = append(cur.writes, walWrite{key, val})
			case 4:
				if err := kv.Put(tx, key, nil); err != nil {
					t.Fatal(err)
				}
				cur.writes = append(cur.writes, walWrite{key, nil})
			case 5:
				if err := kv.Put(tx, key, []byte{}); err != nil {
					t.Fatal(err)
				}
				cur.writes = append(cur.writes, walWrite{key, []byte{}})
			case 6:
				kv.Commit(tx)
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				if len(cur.writes) > 0 {
					cur.committed = kv.WAL().Len()
				}
				txs = append(txs, cur)
				tx = nil
			case 7:
				kv.Abort(tx)
				tx.Abort()
				txs = append(txs, cur)
				tx = nil
			}
		}
		kv.Crash()
		kv.wal.mu.Lock()
		if n := int(cut); n < len(kv.wal.records) {
			kv.wal.records = kv.wal.records[:n]
		}
		survived := len(kv.wal.records)
		kv.wal.mu.Unlock()
		kv.Recover()

		want := walModel{}
		for _, tr := range txs {
			if tr.committed > 0 && tr.committed <= survived {
				want.apply(tr.writes)
			}
		}
		for round := 0; round < 2; round++ {
			if kv.Len() != len(want) {
				t.Fatalf("round %d: %d keys recovered, model has %d", round, kv.Len(), len(want))
			}
			for k, v := range want {
				got, ok := kv.Get(k)
				if !ok || (got == nil) != (v == nil) || !bytes.Equal(got, v) {
					t.Fatalf("round %d: %s = %q (present %v), model %q", round, k, got, ok, v)
				}
			}
			kv.Crash()
			kv.Recover()
		}
	})
}
