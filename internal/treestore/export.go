package treestore

import (
	"context"
	"fmt"
	"io"

	"repro/internal/newick"
	"repro/internal/relstore"
)

// ExportNewickTo streams the stored tree to w as Newick text — identical
// byte-for-byte to newick.String of the exported tree — in one primary-key
// scan and O(depth) working memory, never materializing the tree or its
// serialization. Node rows arrive in preorder (ids are preorder positions)
// and each row carries its subtree size, so the emitter can tell when a
// clade closes without ever looking ahead: a clade rooted at id spans ids
// [id, id+size), and the first row at or past the boundary closes it.
//
// Cancellation propagates from ctx through the row scan: a client that
// disconnects mid-export stops paying for the rest of the traversal within
// one scan batch. Output is buffered in the newick emitter's 8 KiB chunks, so
// the peak allocation of an export is bounded by the chunk size, not the
// tree.
func (t *Tree) ExportNewickTo(ctx context.Context, w io.Writer) error {
	em := newick.NewEmitter(w)
	// open holds the interior nodes whose clades are still being emitted:
	// the current root-to-node path, deepest last.
	type clade struct {
		end      int // first preorder id past the subtree
		name     string
		length   float64
		root     bool
		children int
	}
	var open []clade
	sawRoot := false
	err := t.nodes.ScanCtx(ctx, func(row relstore.Row) (bool, error) {
		if err := em.Err(); err != nil {
			// The sink is dead (disk full, closed pipe): stop the scan now
			// instead of walking the rest of the tree into no-op emits.
			return false, err
		}
		n, err := decodeNode(row)
		if err != nil {
			return false, err
		}
		for len(open) > 0 && n.ID >= open[len(open)-1].end {
			top := open[len(open)-1]
			open = open[:len(open)-1]
			em.CloseClade(top.name, top.length, !top.root)
		}
		if len(open) > 0 {
			open[len(open)-1].children++
			if open[len(open)-1].children > 1 {
				em.Sibling()
			}
		}
		sawRoot = true
		isRoot := n.Parent < 0
		if n.Leaf {
			em.Leaf(n.Name, n.Length, !isRoot)
			return true, nil
		}
		em.OpenClade()
		open = append(open, clade{end: n.ID + n.Size, name: n.Name, length: n.Length, root: isRoot})
		return true, nil
	})
	if err != nil {
		return err
	}
	if !sawRoot {
		return fmt.Errorf("%w: export found no root", ErrNoNode)
	}
	for len(open) > 0 {
		top := open[len(open)-1]
		open = open[:len(open)-1]
		em.CloseClade(top.name, top.length, !top.root)
	}
	return em.End()
}
