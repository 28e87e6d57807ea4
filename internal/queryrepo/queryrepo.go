// Package queryrepo is Crimson's Query Repository (§2.1): a persistent
// history of user queries that, "used in conjunction with the Crimson GUI,
// makes it convenient for users to recall and rerun historical queries."
package queryrepo

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/relstore"
)

// ErrNoEntry is returned when a history id does not exist.
var ErrNoEntry = errors.New("queryrepo: no such history entry")

const (
	tableName  = "query_history"
	counterKey = int64(-1) // row holding the next id in the same table
)

// Entry is one recorded query.
type Entry struct {
	ID      int64
	Time    time.Time
	Kind    string // the Query's Kind: "lca", "project", "sample", "bench", ...
	Args    string // the Query's JSON encoding; Query decodes it
	Summary string // human-readable result summary
}

// Repo is the query history repository over one database per shard. A
// write records its entry on its own shard, in its own transaction, so the
// entry commits with the write or not at all; reads are recorded on shard 0.
//
// Ids are global: one in-process counter, seeded at the first successful
// Record from the largest id any shard's counter row holds, issues them
// dense and increasing across shards. Record is safe to call from many
// goroutines at once, but on one shard only under that shard's writer
// contract. The history is read through a View, which sees committed
// records only.
type Repo struct {
	dbs  []*relstore.DB
	mu   sync.Mutex // serializes Record (the id counter)
	last int64      // the last id issued; 0 until the first Record succeeds
}

// NewOnShards layers the repository over one database per shard, creating
// the history table on every writable one. A replica's arrives through
// replication, and Record finds it (or creates it) at its first write
// after a promote.
func NewOnShards(dbs []*relstore.DB) (*Repo, error) {
	for i, db := range dbs {
		if db.Store().IsReplica() {
			continue
		}
		if _, err := historyTable(db); err != nil {
			return nil, fmt.Errorf("queryrepo: initializing shard %d: %w", i, err)
		}
	}
	return &Repo{dbs: dbs}, nil
}

// historyTable returns the writer's handle on the history table, creating
// the table where missing.
func historyTable(db *relstore.DB) (*relstore.Table, error) {
	tab, err := db.Table(tableName)
	if errors.Is(err, relstore.ErrNoTable) {
		tab, err = db.CreateTable(relstore.Schema{
			Name: tableName,
			Columns: []relstore.Column{
				{Name: "id", Type: relstore.TInt},
				{Name: "time", Type: relstore.TInt}, // unix nanoseconds
				{Name: "kind", Type: relstore.TString},
				{Name: "args", Type: relstore.TString},
				{Name: "summary", Type: relstore.TString},
			},
			Key: "id",
			Indexes: []relstore.Index{
				{Name: "by_kind", Columns: []string{"kind"}},
			},
		})
	}
	return tab, err
}

// Record appends a query to shard si's history, in the transaction the
// caller has open there: its kind, its JSON encoding as the args and the
// summary.
func (r *Repo) Record(si int, q Query, summary string) (Entry, error) {
	argsJSON, err := json.Marshal(q)
	if err != nil {
		return Entry{}, fmt.Errorf("queryrepo: encoding args: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	tab, err := historyTable(r.dbs[si])
	if err != nil {
		return Entry{}, err
	}
	last := r.last
	if last == 0 {
		if last, err = r.lastIssued(si, tab); err != nil {
			return Entry{}, err
		}
	}
	e := Entry{ID: last + 1, Time: time.Now(), Kind: q.Kind(), Args: string(argsJSON), Summary: summary}
	// The counter row keeps the shard's last id in its time column.
	err = tab.Put(relstore.Tuple{
		relstore.Int(counterKey),
		relstore.Int(e.ID),
		relstore.Str("_counter"),
		relstore.Str(""),
		relstore.Str(""),
	})
	if err == nil {
		err = tab.Insert(relstore.Tuple{
			relstore.Int(e.ID),
			relstore.Int(e.Time.UnixNano()),
			relstore.Str(e.Kind),
			relstore.Str(e.Args),
			relstore.Str(e.Summary),
		})
	}
	if err != nil {
		return Entry{}, err
	}
	r.last = e.ID
	return e, nil
}

// lastIssued is the largest id any shard's counter row holds: shard si's as
// the caller's transaction has it (tab is its writer handle), every other
// shard's as last committed, which no writer of that shard holds up.
func (r *Repo) lastIssued(si int, tab *relstore.Table) (int64, error) {
	last, err := lastID(tab.Get)
	for i, db := range r.dbs {
		if i == si || err != nil {
			continue
		}
		sn := db.Snapshot()
		var id int64
		view, verr := sn.Table(tableName)
		if verr == nil {
			id, err = lastID(view.Get)
		} else if !errors.Is(verr, relstore.ErrNoTable) {
			err = verr
		}
		sn.Close()
		last = max(last, id)
	}
	return last, err
}

// lastID reads the last issued id off one shard's counter row (0 when the
// shard has issued none).
func lastID(get func(relstore.Value) (relstore.Row, bool, error)) (int64, error) {
	row, ok, err := get(relstore.Int(counterKey))
	if err != nil || !ok {
		return 0, err
	}
	counter, err := decodeEntry(row)
	return counter.Time.UnixNano(), err
}

func decodeEntry(row relstore.Row) (Entry, error) {
	c := row.Cols()
	e := Entry{
		ID:      c.Int(),
		Time:    time.Unix(0, c.Int()),
		Kind:    string(c.Str()),
		Args:    string(c.Str()),
		Summary: string(c.Str()),
	}
	return e, c.Err()
}

// appendEntries is the scan callback that decodes every row onto *out.
func appendEntries(out *[]Entry) func(relstore.Row) (bool, error) {
	return func(row relstore.Row) (bool, error) {
		e, err := decodeEntry(row)
		*out = append(*out, e)
		return true, err
	}
}

func getEntry(tab *relstore.TableView, id int64) (Entry, error) {
	row, ok, err := tab.Get(relstore.Int(id))
	if err != nil {
		return Entry{}, err
	}
	if !ok {
		return Entry{}, fmt.Errorf("%w: %d", ErrNoEntry, id)
	}
	e, err := decodeEntry(row)
	if err == nil && e.Kind == "_counter" {
		err = fmt.Errorf("%w: %d", ErrNoEntry, id)
	}
	return e, err
}

// scanIDs returns every shard's entries with lo <= id < hi (hi unset: no
// upper bound), merged in ascending id order.
func scanIDs(ctx context.Context, tabs []*relstore.TableView, lo, hi relstore.Value) ([]Entry, error) {
	var out []Entry
	for _, tab := range tabs {
		if err := tab.ScanRangeCtx(ctx, lo, hi, appendEntries(&out)); err != nil {
			return nil, err
		}
	}
	slices.SortFunc(out, byID)
	return out, nil
}

func byID(a, b Entry) int { return cmp.Compare(a.ID, b.ID) }

// historyPage returns up to limit entries with id < beforeID (beforeID <= 0
// means "from the newest"), newest first, plus the id to pass as the next
// page's beforeID (0 once the history is exhausted).
//
// The storage cursor only walks forward, but ids are issued by a dense
// counter, so a page of L entries below beforeID almost always lives in
// the id window [beforeID-L, beforeID). The pager scans that window on
// every shard, prepends it reversed, and walks further windows down only to
// cover the shortfall from gaps (a crashed insert that burned an id, an
// entry whose shard has not committed it) — O(pages read), not
// O(history), per page. A final one-descent probe per shard below the
// oldest returned id decides whether a next cursor exists.
func historyPage(ctx context.Context, tabs []*relstore.TableView, beforeID int64, limit int) ([]Entry, int64, error) {
	if limit <= 0 {
		// Full listing: one ascending scan per shard, merged and reversed.
		hi := relstore.Value{}
		if beforeID > 0 {
			hi = relstore.Int(beforeID)
		}
		all, err := scanIDs(ctx, tabs, relstore.Int(0), hi)
		slices.Reverse(all)
		return all, 0, err
	}

	hi := beforeID
	if hi <= 0 {
		// First page: the counter rows (id -1) hold each shard's last
		// issued id.
		last := int64(0)
		for _, tab := range tabs {
			id, err := lastID(tab.Get)
			if err != nil {
				return nil, 0, err
			}
			last = max(last, id)
		}
		if last == 0 {
			return nil, 0, nil // no history yet
		}
		hi = last + 1
	}
	out := make([]Entry, 0, limit)
	for hi > 0 && len(out) < limit {
		lo := max(hi-int64(limit-len(out)), 0)
		window, err := scanIDs(ctx, tabs, relstore.Int(lo), relstore.Int(hi))
		if err != nil {
			return nil, 0, err
		}
		for i := len(window) - 1; i >= 0; i-- {
			out = append(out, window[i])
		}
		hi = lo
	}
	next := int64(0)
	if len(out) > 0 {
		oldest := out[len(out)-1].ID
		// Probe: does any shard hold anything below the oldest returned id?
		for _, tab := range tabs {
			err := tab.ScanRangeCtx(ctx, relstore.Int(0), relstore.Int(oldest), func(relstore.Row) (bool, error) {
				next = oldest
				return false, nil
			})
			if err != nil {
				return nil, 0, err
			}
			if next != 0 {
				break
			}
		}
	}
	return out, next, nil
}

// View is the read side of the query history, as of a snapshot of every
// shard: Get, History and ByKind run lock-free against the epochs the
// snapshot pinned, so browsing history never waits behind a bulk load, and
// merge the shards' entries by id. Records not committed when the snapshot
// was taken are invisible to it.
type View struct {
	sns []*relstore.Snap
}

// ViewOnShards binds a history view to one relational snapshot per shard
// (shared with the tree and species repositories).
func ViewOnShards(sns []*relstore.Snap) *View { return &View{sns: sns} }

// tables returns the history table of every shard that has one: a shard
// written before its history table existed has none.
func (v *View) tables() ([]*relstore.TableView, error) {
	var tabs []*relstore.TableView
	for _, sn := range v.sns {
		tab, err := sn.Table(tableName)
		if errors.Is(err, relstore.ErrNoTable) {
			continue
		}
		if err != nil {
			return nil, err
		}
		tabs = append(tabs, tab)
	}
	return tabs, nil
}

// Get fetches one entry by id as of the snapshot.
func (v *View) Get(id int64) (Entry, error) {
	tabs, err := v.tables()
	if err != nil {
		return Entry{}, err
	}
	for _, tab := range tabs {
		if e, err := getEntry(tab, id); !errors.Is(err, ErrNoEntry) {
			return e, err
		}
	}
	return Entry{}, fmt.Errorf("%w: %d", ErrNoEntry, id)
}

// History returns up to limit most recent entries (all of them when limit
// <= 0) as of the snapshot, newest first.
func (v *View) History(ctx context.Context, limit int) ([]Entry, error) {
	out, _, err := v.HistoryPage(ctx, 0, limit)
	return out, err
}

// HistoryPage returns up to limit entries older than beforeID as of the
// snapshot (beforeID <= 0 starts at the newest), newest first, and the id
// to pass as the next page's beforeID — 0 once exhausted.
func (v *View) HistoryPage(ctx context.Context, beforeID int64, limit int) ([]Entry, int64, error) {
	tabs, err := v.tables()
	if err != nil {
		return nil, 0, err
	}
	return historyPage(ctx, tabs, beforeID, limit)
}

// ByKind returns all entries of one kind as of the snapshot, oldest first.
func (v *View) ByKind(ctx context.Context, kind string) ([]Entry, error) {
	tabs, err := v.tables()
	if err != nil {
		return nil, err
	}
	var out []Entry
	for _, tab := range tabs {
		if err := tab.IndexScanCtx(ctx, "by_kind", []relstore.Value{relstore.Str(kind)}, appendEntries(&out)); err != nil {
			return nil, err
		}
	}
	slices.SortFunc(out, byID)
	return out, nil
}
