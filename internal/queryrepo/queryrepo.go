// Package queryrepo is Crimson's Query Repository (§2.1): a persistent
// history of user queries that, "used in conjunction with the Crimson GUI,
// makes it convenient for users to recall and rerun historical queries."
package queryrepo

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
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
	Kind    string // e.g. "lca", "project", "sample", "bench"
	Args    string // JSON-encoded arguments, sufficient to rerun
	Summary string // human-readable result summary
}

// Repo is the query history repository.
//
// Record is safe to call from many goroutines at once: a repo-level
// mutex makes the read-counter/write-counter/insert sequence atomic, so
// IDs stay unique and dense no matter how many recorders race. The history
// is read through a View, which sees committed records only.
type Repo struct {
	db  *relstore.DB
	mu  sync.Mutex // serializes Record/Clear (the id counter's read-modify-write)
	tab *relstore.Table
}

// NewOnDB layers the repository over an existing database.
func NewOnDB(db *relstore.DB) (*Repo, error) {
	r := &Repo{db: db}
	if err := r.Reload(); err != nil {
		return nil, err
	}
	return r, nil
}

// NewOnReplicaDB layers the repository over a replica database without
// touching it: a replica can neither create the table nor record queries,
// so the writer's handle stays unresolved until a promote calls Reload.
// Views never notice — they resolve the table per snapshot.
func NewOnReplicaDB(db *relstore.DB) *Repo { return &Repo{db: db} }

// Reload (re-)resolves the writer's table handle, creating the table where
// missing. Called at construction and after a promote flips the
// underlying store writable.
func (r *Repo) Reload() error {
	tab, err := r.db.Table(tableName)
	if errors.Is(err, relstore.ErrNoTable) {
		tab, err = r.db.CreateTable(relstore.Schema{
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
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.tab = tab
	r.mu.Unlock()
	return nil
}

// Record appends a query to the history. Args is JSON-marshalled.
// Safe for concurrent use.
func (r *Repo) Record(kind string, args any, summary string) (Entry, error) {
	argsJSON, err := json.Marshal(args)
	if err != nil {
		return Entry{}, fmt.Errorf("queryrepo: encoding args: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id, err := r.nextID()
	if err != nil {
		return Entry{}, err
	}
	e := Entry{ID: id, Time: time.Now(), Kind: kind, Args: string(argsJSON), Summary: summary}
	err = r.tab.Insert(relstore.Tuple{
		relstore.Int(e.ID),
		relstore.Int(e.Time.UnixNano()),
		relstore.Str(e.Kind),
		relstore.Str(e.Args),
		relstore.Str(e.Summary),
	})
	if err != nil {
		return Entry{}, err
	}
	return e, nil
}

func (r *Repo) nextID() (int64, error) {
	row, ok, err := r.tab.Get(relstore.Int(counterKey))
	if err != nil {
		return 0, err
	}
	next := int64(1)
	if ok {
		counter, err := decodeEntry(row)
		if err != nil {
			return 0, err
		}
		next = counter.Time.UnixNano() + 1 // the counter row keeps the last id in its time column
	}
	err = r.tab.Put(relstore.Tuple{
		relstore.Int(counterKey),
		relstore.Int(next),
		relstore.Str("_counter"),
		relstore.Str(""),
		relstore.Str(""),
	})
	if err != nil {
		return 0, err
	}
	return next, nil
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

// historyPage returns up to limit entries with id < beforeID (beforeID <= 0
// means "from the newest"), newest first, plus the id to pass as the next
// page's beforeID (0 once the history is exhausted).
//
// The storage cursor only walks forward, but ids are issued by a dense
// counter, so a page of L entries below beforeID almost always lives in
// the id window [beforeID-L, beforeID). The pager scans that window,
// prepends it reversed, and walks further windows down only to cover the
// shortfall from gaps (a crashed insert that burned an id) — O(pages
// read), not O(history), per page. A final one-descent probe below the
// oldest returned id decides whether a next cursor exists.
func historyPage(ctx context.Context, tab *relstore.TableView, beforeID int64, limit int) ([]Entry, int64, error) {
	if limit <= 0 {
		// Full listing: one ascending scan, reversed.
		var all []Entry
		hi := relstore.Value{}
		if beforeID > 0 {
			hi = relstore.Int(beforeID)
		}
		err := tab.ScanRangeCtx(ctx, relstore.Int(0), hi, appendEntries(&all))
		if err != nil {
			return nil, 0, err
		}
		for i, j := 0, len(all)-1; i < j; i, j = i+1, j-1 {
			all[i], all[j] = all[j], all[i]
		}
		return all, 0, nil
	}

	hi := beforeID
	if hi <= 0 {
		// First page: the counter row (id -1) holds the last issued id.
		row, ok, err := tab.Get(relstore.Int(counterKey))
		if err != nil {
			return nil, 0, err
		}
		if !ok {
			return nil, 0, nil // no history yet
		}
		counter, err := decodeEntry(row)
		if err != nil {
			return nil, 0, err
		}
		hi = counter.Time.UnixNano() + 1
	}
	out := make([]Entry, 0, limit)
	for hi > 0 && len(out) < limit {
		lo := hi - int64(limit-len(out))
		if lo < 0 {
			lo = 0
		}
		var window []Entry // ascending within the window
		err := tab.ScanRangeCtx(ctx, relstore.Int(lo), relstore.Int(hi), appendEntries(&window))
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
		// Probe: does anything exist below the oldest returned id?
		older := false
		err := tab.ScanRangeCtx(ctx, relstore.Int(0), relstore.Int(oldest), func(relstore.Row) (bool, error) {
			older = true
			return false, nil
		})
		if err != nil {
			return nil, 0, err
		}
		if older {
			next = oldest
		}
	}
	return out, next, nil
}

func history(ctx context.Context, tab *relstore.TableView, limit int) ([]Entry, error) {
	out, _, err := historyPage(ctx, tab, 0, limit)
	return out, err
}

func byKind(ctx context.Context, tab *relstore.TableView, kind string) ([]Entry, error) {
	var out []Entry
	err := tab.IndexScanCtx(ctx, "by_kind", []relstore.Value{relstore.Str(kind)}, appendEntries(&out))
	return out, err
}

// View is the read side of the query history, as of a snapshot: Get, History
// and ByKind run lock-free against the epoch the snapshot pinned, so browsing
// history never waits behind a bulk load. Records not committed when the
// snapshot was taken are invisible to it.
type View struct {
	rs *relstore.Snap
}

// ViewOn binds a history view to a relational snapshot (shared with the
// tree and species repositories).
func ViewOn(rs *relstore.Snap) *View { return &View{rs: rs} }

func (v *View) table() (*relstore.TableView, error) {
	tab, err := v.rs.Table(tableName)
	if errors.Is(err, relstore.ErrNoTable) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return tab, nil
}

// Get fetches one entry by id as of the snapshot.
func (v *View) Get(id int64) (Entry, error) {
	tab, err := v.table()
	if err != nil {
		return Entry{}, err
	}
	if tab == nil {
		return Entry{}, fmt.Errorf("%w: %d", ErrNoEntry, id)
	}
	return getEntry(tab, id)
}

// HistoryCtx returns up to limit most recent entries as of the snapshot
// under ctx.
func (v *View) HistoryCtx(ctx context.Context, limit int) ([]Entry, error) {
	tab, err := v.table()
	if err != nil || tab == nil {
		return nil, err
	}
	return history(ctx, tab, limit)
}

// History returns up to limit most recent entries as of the snapshot.
func (v *View) History(limit int) ([]Entry, error) {
	return v.HistoryCtx(context.Background(), limit)
}

// HistoryPage returns up to limit entries older than beforeID as of the
// snapshot (beforeID <= 0 starts at the newest), newest first, and the id
// to pass as the next page's beforeID — 0 once exhausted.
func (v *View) HistoryPage(ctx context.Context, beforeID int64, limit int) ([]Entry, int64, error) {
	tab, err := v.table()
	if err != nil || tab == nil {
		return nil, 0, err
	}
	return historyPage(ctx, tab, beforeID, limit)
}

// ByKindCtx returns all entries of one kind as of the snapshot under ctx.
func (v *View) ByKindCtx(ctx context.Context, kind string) ([]Entry, error) {
	tab, err := v.table()
	if err != nil || tab == nil {
		return nil, err
	}
	return byKind(ctx, tab, kind)
}

// ByKind returns all entries of one kind as of the snapshot.
func (v *View) ByKind(kind string) ([]Entry, error) {
	return v.ByKindCtx(context.Background(), kind)
}

// UnmarshalArgs decodes an entry's JSON args for rerunning the query.
func (e Entry) UnmarshalArgs(into any) error {
	return json.Unmarshal([]byte(e.Args), into)
}

// Clear removes all history entries (and resets the id counter).
func (r *Repo) Clear() (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ids []int64
	err := r.tab.Scan(func(row relstore.Row) (bool, error) {
		c := row.Cols()
		ids = append(ids, c.Int())
		return true, c.Err()
	})
	if err != nil {
		return 0, err
	}
	n := 0
	for _, id := range ids {
		if _, err := r.tab.Delete(relstore.Int(id)); err != nil {
			return n, err
		}
		if id != counterKey {
			n++
		}
	}
	return n, nil
}
