package storage

import (
	"context"

	"repro/internal/obs"
)

// cancelCheckInterval is how many entries a streaming scan visits between
// cooperative cancellation checks. Checking ctx.Err() takes a mutex on
// derived contexts, so per-row checks would tax tight scans; every 128
// rows keeps the abort latency of even a cold disk scan in the tens of
// microseconds while making the check cost unmeasurable.
const cancelCheckInterval = 128

// Scan streams the tree's entries in ascending key order, starting at the
// first key >= start (nil starts at the smallest key), resolving overflow
// chains, until fn returns false or an error. It checks ctx cooperatively
// every cancelCheckInterval entries and returns ctx's error once the
// context is done — the primitive every cancellable read in the layers
// above bottoms out in.
//
// Like cursor iteration, Scan is safe for any number of concurrent readers
// of the same tree. The key and value fn sees alias an immutable page image
// (see the BTree doc comment): they outlive the callback unchanged, at the
// price of keeping that image alive.
func (t *BTree) Scan(ctx context.Context, start []byte, fn func(key, value []byte) (bool, error)) error {
	// Once the context is done, any failure is reported as the context's
	// error: a cancelled reader whose snapshot pins were already released
	// may read pages reclaimed and rewritten under it, and the garbage
	// decode that produces should surface as a clean cancellation, not as
	// a corruption report.
	fail := func(err error) error {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// Resolve the per-request counter set once per scan (never per row)
	// and batch the rows-scanned count locally, flushing on return.
	ctr := obs.CountersFrom(ctx)
	rows := int64(0)
	defer func() {
		if rows > 0 {
			obs.Engine.Add(obs.CtrRowsScanned, rows)
			ctr.Add(obs.CtrRowsScanned, rows)
		}
	}()
	var c *cursor
	var err error
	if start == nil {
		c, err = t.firstC(ctr)
	} else {
		c, err = t.seekC(start, ctr)
	}
	if err != nil {
		return fail(err)
	}
	defer c.Close()
	for n := 1; c.Valid(); n++ {
		if n%cancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		v, err := c.Value()
		if err != nil {
			return fail(err)
		}
		rows++
		cont, err := fn(c.Key(), v)
		if err != nil {
			return fail(err)
		}
		if !cont {
			return nil
		}
		if err := c.Next(); err != nil {
			return fail(err)
		}
	}
	return nil
}
