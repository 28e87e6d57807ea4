package treestore

import (
	"context"
	"errors"
	"sort"

	"repro/internal/relstore"
)

// treesAfter scans one shard's catalog for up to limit trees whose name is
// strictly greater than after (limit <= 0 means all), reporting whether
// the shard holds more beyond what it returned. Seeking straight to the
// resume point means a paginated listing never re-reads the rows earlier
// pages already returned.
func treesAfter(ctx context.Context, trees *relstore.TableView, after string, limit int) ([]TreeInfo, bool, error) {
	lo := relstore.Value{}
	if after != "" {
		lo = relstore.Str(after)
	}
	var out []TreeInfo
	more := false
	err := trees.ScanRangeCtx(ctx, lo, relstore.Value{}, func(row relstore.Row) (bool, error) {
		info, err := decodeInfo(row)
		if err != nil {
			return false, err
		}
		if info.Name <= after { // seek lands on the cursor row itself; skip it
			return true, nil
		}
		if limit > 0 && len(out) == limit {
			more = true
			return false, nil
		}
		out = append(out, info)
		return true, nil
	})
	if err != nil {
		return nil, false, err
	}
	return out, more, nil
}

// TreesPage lists up to limit trees whose name sorts strictly after the
// cursor name, merged across shards in name order (limit <= 0 means all).
// It returns the page and, when more trees remain, the name to pass as the
// next call's after — the shard-merge resume position. Each shard is read
// from its resume point forward, so iterating a large repository page by
// page does work proportional to the pages read, not to the full catalog
// each time. The page is each shard's first limit entries past the cursor,
// sorted and cut at limit: it takes at most limit entries from any one
// shard, so the union's first limit entries are the global continuation.
func (sn *Snap) TreesPage(ctx context.Context, after string, limit int) ([]TreeInfo, string, error) {
	var all []TreeInfo
	more := false
	for _, rs := range sn.sns {
		trees, err := rs.Table("trees")
		if err != nil {
			if errors.Is(err, relstore.ErrNoTable) {
				continue // snapshot predates this shard's catalog
			}
			return nil, "", err
		}
		page, shardMore, err := treesAfter(ctx, trees, after, limit)
		if err != nil {
			return nil, "", err
		}
		all = append(all, page...)
		if shardMore {
			more = true
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	if limit > 0 && len(all) > limit {
		all = all[:limit]
		more = true
	}
	next := ""
	if more && len(all) > 0 {
		next = all[len(all)-1].Name
	}
	return all, next, nil
}

// TreesCtx lists the trees stored as of the snapshot under ctx, merged
// across shards in name order.
func (sn *Snap) TreesCtx(ctx context.Context) ([]TreeInfo, error) {
	out, _, err := sn.TreesPage(ctx, "", 0)
	return out, err
}
