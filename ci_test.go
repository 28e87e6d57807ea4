package crimson_test

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// stepName matches a workflow `name:` line and captures its value.
var stepName = regexp.MustCompile(`^\s*(?:- )?name:\s*(.*)$`)

// TestCIStepNamesAreQuoted: a plain YAML scalar may not hold ": " or " #"
// (the first starts a mapping, the second a comment), and one such step
// name makes GitHub reject the whole workflow. A name holding either must
// be quoted.
func TestCIStepNamesAreQuoted(t *testing.T) {
	raw, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(raw), "\n") {
		m := stepName.FindStringSubmatch(line)
		if m == nil || strings.HasPrefix(m[1], `"`) || strings.HasPrefix(m[1], `'`) {
			continue
		}
		if strings.Contains(m[1], ": ") || strings.Contains(m[1], " #") {
			t.Errorf("ci.yml:%d: unquoted name holds %q or %q: %s", i+1, ": ", " #", m[1])
		}
	}
}
