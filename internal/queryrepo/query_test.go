package queryrepo

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

// everyKind holds one value of each recorded kind.
var everyKind = []Query{
	LCA{A: "Spy", B: "Lla", Tree: "gold"},
	Project{Species: []string{"Spy", "Lla", "Bha<&>"}, Tree: "gold"},
	Clade{Species: []string{"Spy", "Lla", "Bha<&>"}, Tree: "gold"},
	Sample{K: 10, Seed: 7, Time: -1, Tree: "gold"},
	Sample{K: 3, Seed: -2, Time: 0.25, Tree: "gold"},
	Match{Pattern: "(Syn:1,(Lla:1,Bha:1):1);", Tree: "gold"},
	Bench{Algs: []string{"NJ", "MP"}, Reps: 2, Seed: 9, SeqLength: 120, Sizes: []int{6, 8}, Time: -1, Tree: "gold"},
	Load{F: 16, Nodes: 9, Tree: "gold"},
	Delete{Tree: "gold"},
}

// TestQueryEncoding pins each kind's args bytes. Every kind but bench is
// encoded byte for byte as its record was before query values existed,
// when it was a map of the same keys: the literals are that encoding.
func TestQueryEncoding(t *testing.T) {
	want := []string{
		`{"a":"Spy","b":"Lla","tree":"gold"}`,
		`{"species":["Spy","Lla","Bha\u003c\u0026\u003e"],"tree":"gold"}`,
		`{"species":["Spy","Lla","Bha\u003c\u0026\u003e"],"tree":"gold"}`,
		`{"k":10,"seed":7,"time":-1,"tree":"gold"}`,
		`{"k":3,"seed":-2,"time":0.25,"tree":"gold"}`,
		`{"pattern":"(Syn:1,(Lla:1,Bha:1):1);","tree":"gold"}`,
		`{"algs":["NJ","MP"],"reps":2,"seed":9,"seq_length":120,"sizes":[6,8],"time":-1,"tree":"gold"}`,
		`{"f":16,"nodes":9,"tree":"gold"}`,
		`{"tree":"gold"}`,
	}
	r := newRepo(t)
	for i, q := range everyKind {
		e, err := r.Record(0, q, "")
		if err != nil {
			t.Fatal(err)
		}
		if e.Args != want[i] {
			t.Errorf("%s args = %s\nwant %s", q.Kind(), e.Args, want[i])
		}
	}
}

// TestQueryDecodesOldEntries decodes what earlier versions wrote: the
// CLI's bench algs as a string, crimsond's as a list or null, all without a
// seed, and the repository example's records without a tree.
func TestQueryDecodesOldEntries(t *testing.T) {
	for _, tc := range []struct {
		kind, args string
		want       Query // nil: an error
		err        error
	}{
		{"bench", `{"algs":"NJ,UPGMA","reps":3,"sizes":[10,20],"tree":"gold"}`, nil, errNoSeed},
		{"bench", `{"algs":["NJ"],"reps":1,"sizes":[6],"tree":"gold"}`, nil, errNoSeed},
		{"bench", `{"algs":null,"reps":3,"sizes":[10,50,100],"tree":"gold"}`, nil, errNoSeed},
		{"bench", `{"algs":"NJ,UPGMA","reps":3,"seed":4,"sizes":[10],"tree":"gold"}`,
			Bench{Algs: []string{"NJ", "UPGMA"}, Reps: 3, Seed: 4, Sizes: []int{10}, Tree: "gold"}, nil},
		{"bench", `{"algs":7,"seed":1,"tree":"gold"}`, nil, nil},
		{"lca", `{"a":"taxon000010","b":"taxon004000"}`, nil, errNoTree},
		{"project", `{"k":8}`, nil, errNoTree},
		{"sample", `{"k":3,"seed":11,"time":-1,"tree":"fig1"}`, Sample{K: 3, Seed: 11, Time: -1, Tree: "fig1"}, nil},
		{"lca", `{"a":"Lla","b":"Spy","tree":"fig1"}`, LCA{A: "Lla", B: "Spy", Tree: "fig1"}, nil},
		{"op", `{}`, nil, nil},
		{"lca", `{"a":`, nil, nil},
	} {
		got, err := Entry{ID: 1, Kind: tc.kind, Args: tc.args}.Query()
		if tc.want == nil {
			if err == nil || (tc.err != nil && !errors.Is(err, tc.err)) {
				t.Errorf("%s %s: Query() = %#v, %v; want error %v", tc.kind, tc.args, got, err, tc.err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s %s: Query() = %#v, %v; want %#v", tc.kind, tc.args, got, err, tc.want)
		}
	}
}

// FuzzHistoryArgs: history args are bytes from disk and from a primary.
// For any kind and args, Query returns an error or a value whose encoding
// decodes to an equal value, and never panics.
func FuzzHistoryArgs(f *testing.F) {
	for _, q := range everyKind {
		raw, _ := json.Marshal(q)
		f.Add(q.Kind(), string(raw))
	}
	f.Add("bench", `{"algs":"NJ,UPGMA","seed":1,"tree":"t"}`)
	f.Add("bench", `{"algs":["NJ"],"reps":1,"sizes":[6],"tree":"t"}`)
	f.Add("lca", `{"a":"x","b":"y"}`)
	f.Fuzz(func(t *testing.T, kind, args string) {
		q, err := Entry{Kind: kind, Args: args}.Query()
		if err != nil {
			return
		}
		if q.Kind() != kind {
			t.Fatalf("kind %q decoded as a %s", kind, q.Kind())
		}
		raw, err := json.Marshal(q)
		if err != nil {
			t.Fatalf("encoding %#v: %v", q, err)
		}
		back, err := Entry{Kind: kind, Args: string(raw)}.Query()
		if err != nil || !reflect.DeepEqual(back, q) {
			t.Fatalf("%s %s decoded to %#v, re-encoded as %s, decoded to %#v (%v)", kind, args, q, raw, back, err)
		}
	})
}
