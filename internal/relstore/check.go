package relstore

import (
	"fmt"
)

// Check verifies the physical and logical integrity of every table in the
// database as committed: B+tree structural invariants (key ordering, uniform
// depth), row decodability against the schema, and bidirectional consistency
// between each table and its secondary indexes (every row has exactly its
// index entries; every index entry resolves to a stored row). It is the
// backing of the CLI's fsck command: a synchronous checkpoint, then
// Snap.Check on a snapshot of the result.
func (db *DB) Check() error {
	// Flush the writeback table first so the page file matches the
	// WAL-durable state (fsck over a copied page file sees everything).
	if err := db.Checkpoint(); err != nil {
		return fmt.Errorf("relstore: pre-check checkpoint: %w", err)
	}
	sn := db.Snapshot()
	defer sn.Close()
	return sn.Check()
}
