package server

import (
	"net/http"
	"strings"
	"testing"

	"repro/internal/queryrepo"
	"repro/internal/relstore"
)

// TestRerunRefusals: POST /v1/history/{id}/rerun answers 404 for an id the
// history does not hold, as GET /v1/history/{id} does, and 400 for an
// entry it cannot rerun: a load, a delete, and a bench recorded without
// its seed, as every bench was before seeds were kept.
func TestRerunRefusals(t *testing.T) {
	s := newWriteTestServer(t, envShards(t))
	if rec := serve(s, http.MethodPost, "/v1/trees/t", strings.NewReader("((a:1,b:1):1,c:2);")); rec.Code != http.StatusOK {
		t.Fatalf("load: %d %s", rec.Code, rec.Body)
	}
	del, err := s.be.queries.Record(0, queryrepo.Delete{Tree: "gone"}, "deleted")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := s.be.DBs[0].Table("query_history")
	if err != nil {
		t.Fatal(err)
	}
	err = tab.Insert(relstore.Tuple{relstore.Int(100), relstore.Int(0), relstore.Str("bench"),
		relstore.Str(`{"algs":["NJ"],"reps":1,"sizes":[3],"tree":"t"}`), relstore.Str("benchmark complete")})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.be.DBs[0].Commit(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		id     string
		status int
	}{
		{"1", http.StatusBadRequest},   // the load
		{"2", http.StatusBadRequest},   // the delete
		{"100", http.StatusBadRequest}, // the seedless bench
		{"999", http.StatusNotFound},
		{"x", http.StatusBadRequest},
	} {
		if rec := serve(s, http.MethodPost, "/v1/history/"+tc.id+"/rerun", nil); rec.Code != tc.status {
			t.Errorf("rerun of #%s: %d %s, want %d", tc.id, rec.Code, rec.Body, tc.status)
		}
	}
	if del.ID != 2 {
		t.Fatalf("the delete was recorded as #%d, want #2", del.ID)
	}
}
