package server

import (
	"net/http"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// readmeEndpoint matches a row of README's endpoint table:
// | `GET` | `/v1/trees` | ... — methods may be joined, as in `PUT/GET/DELETE`.
var readmeEndpoint = regexp.MustCompile("^\\|\\s*`([A-Z/]+)`\\s*\\|\\s*`(/[^`]*)`")

// TestRoutesMatchREADME: README's endpoint table and the route table name
// the same endpoints, so neither can gain or lose one alone.
func TestRoutesMatchREADME(t *testing.T) {
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		m := readmeEndpoint.FindStringSubmatch(line)
		if m == nil || m[2] == "/healthz" { // mounted beside the table
			continue
		}
		for _, method := range strings.Split(m[1], "/") {
			documented[method+" "+m[2]] = true
		}
	}
	served := map[string]bool{}
	for _, rt := range routes {
		served[rt.pattern] = true
	}
	var drift []string
	for p := range documented {
		if !served[p] {
			drift = append(drift, "documented, not routed: "+p)
		}
	}
	for p := range served {
		if !documented[p] {
			drift = append(drift, "routed, not documented: "+p)
		}
	}
	sort.Strings(drift)
	if len(drift) > 0 {
		t.Fatalf("README's endpoint table and the route table differ:\n%s", strings.Join(drift, "\n"))
	}
}

// TestEveryRouteSetsRequestID walks the route table: every endpoint's
// response carries an X-Request-Id, whatever its kind and whether it
// answered or refused.
func TestEveryRouteSetsRequestID(t *testing.T) {
	s := newWriteTestServer(t, envShards(t))
	args := strings.NewReplacer("{name}", "t", "{sp}", "s", "{kind}", "k", "{id}", "1")
	seen := map[string]bool{}
	for _, rt := range routes {
		method, path, _ := strings.Cut(rt.pattern, " ")
		target := args.Replace(path)
		if rt.op == "repl_stream" {
			target += "?shard=-1" // refused at once; a real stream never ends
		}
		rec := serve(s, method, target, strings.NewReader(""))
		rid := rec.Header().Get("X-Request-Id")
		if rid == "" || seen[rid] {
			t.Errorf("%s %s: status %d, X-Request-Id %q (want a fresh one)", method, target, rec.Code, rid)
		}
		seen[rid] = true
	}
	if rec := serve(s, http.MethodGet, "/healthz", nil); rec.Code != http.StatusOK || rec.Body.String() != "ok\n" {
		t.Errorf("/healthz: %d %q", rec.Code, rec.Body.String())
	}
}
