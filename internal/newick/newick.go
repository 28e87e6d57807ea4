// Package newick parses and serializes trees in Newick format, the tree
// description language embedded in NEXUS TREES blocks. It supports quoted
// labels, underscore-as-space convention, branch lengths, interior labels
// and bracket comments.
package newick

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/phylo"
)

// ErrSyntax wraps all parse errors.
var ErrSyntax = errors.New("newick: syntax error")

// Parse reads a single Newick tree from s (terminated by ';', which may be
// omitted at end of input). Inputs at or above the parallel size threshold
// are parsed by the chunked concurrent parser (see ParseWorkers), which
// produces a tree identical to the serial parse.
func Parse(s string) (*phylo.Tree, error) {
	return ParseWorkers(s, 0)
}

// parseWith runs the whole-input grammar on an already-configured parser:
// one tree, optional trailing ';', nothing after.
func parseWith(p *parser) (*phylo.Tree, error) {
	root, err := p.parseNode()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos < len(p.in) && p.in[p.pos] == ';' {
		p.pos++
	}
	p.skipSpace()
	if p.pos != len(p.in) {
		return nil, fmt.Errorf("%w: trailing input at offset %d", ErrSyntax, p.pos)
	}
	t := phylo.New(root)
	t.Reindex()
	return t, nil
}

type parser struct {
	in  string
	pos int
	// spans, when non-nil, maps byte offsets of '(' characters to subtree
	// groups already parsed by the chunked concurrent parser; parseNode
	// splices the pre-built children in instead of re-parsing the bytes.
	spans map[int]*chunkSpan
}

func (p *parser) skipSpace() {
	for p.pos < len(p.in) {
		c := p.in[p.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			p.pos++
		case c == '[': // bracket comment
			end := strings.IndexByte(p.in[p.pos:], ']')
			if end < 0 {
				p.pos = len(p.in)
				return
			}
			p.pos += end + 1
		default:
			return
		}
	}
}

func (p *parser) peek() (byte, bool) {
	p.skipSpace()
	if p.pos >= len(p.in) {
		return 0, false
	}
	return p.in[p.pos], true
}

// parseNode parses "(child,child,...)label:length" or "label:length".
func (p *parser) parseNode() (*phylo.Node, error) {
	n := &phylo.Node{}
	c, ok := p.peek()
	if !ok {
		return nil, fmt.Errorf("%w: unexpected end of input", ErrSyntax)
	}
	if c == '(' {
		if sp, ok := p.spans[p.pos]; ok {
			if sp.err != nil {
				return nil, sp.err
			}
			n = sp.root
			p.pos = sp.end
		} else if err := p.parseGroup(n); err != nil {
			return nil, err
		}
	}
	name, err := p.parseLabel()
	if err != nil {
		return nil, err
	}
	n.Name = name
	if c, ok = p.peek(); ok && c == ':' {
		p.pos++
		length, err := p.parseNumber()
		if err != nil {
			return nil, err
		}
		n.Length = length
	}
	if n.Name == "" && len(n.Children) == 0 {
		return nil, fmt.Errorf("%w: empty node at offset %d", ErrSyntax, p.pos)
	}
	return n, nil
}

// parseGroup parses a parenthesized child list "(child,child,...)" into n,
// leaving the group's trailing label and branch length to the caller.
// p.pos must be at the '('.
func (p *parser) parseGroup(n *phylo.Node) error {
	p.pos++
	for {
		child, err := p.parseNode()
		if err != nil {
			return err
		}
		n.AddChild(child)
		c, ok := p.peek()
		if !ok {
			return fmt.Errorf("%w: unclosed '('", ErrSyntax)
		}
		if c == ',' {
			p.pos++
			continue
		}
		if c == ')' {
			p.pos++
			return nil
		}
		return fmt.Errorf("%w: expected ',' or ')' at offset %d", ErrSyntax, p.pos)
	}
}

func (p *parser) parseLabel() (string, error) {
	c, ok := p.peek()
	if !ok {
		return "", nil
	}
	if c == '\'' {
		return p.parseQuoted()
	}
	start := p.pos
	for p.pos < len(p.in) {
		c = p.in[p.pos]
		if c == ',' || c == ')' || c == '(' || c == ':' || c == ';' || c == '[' ||
			c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			break
		}
		p.pos++
	}
	// Underscores in unquoted labels conventionally denote spaces.
	return strings.ReplaceAll(p.in[start:p.pos], "_", " "), nil
}

func (p *parser) parseQuoted() (string, error) {
	p.pos++ // opening quote
	var sb strings.Builder
	for p.pos < len(p.in) {
		c := p.in[p.pos]
		if c == '\'' {
			if p.pos+1 < len(p.in) && p.in[p.pos+1] == '\'' {
				sb.WriteByte('\'')
				p.pos += 2
				continue
			}
			p.pos++
			return sb.String(), nil
		}
		sb.WriteByte(c)
		p.pos++
	}
	return "", fmt.Errorf("%w: unterminated quoted label", ErrSyntax)
}

func (p *parser) parseNumber() (float64, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.in) {
		c := p.in[p.pos]
		if (c >= '0' && c <= '9') || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E' {
			p.pos++
			continue
		}
		break
	}
	if start == p.pos {
		return 0, fmt.Errorf("%w: expected branch length at offset %d", ErrSyntax, p.pos)
	}
	v, err := strconv.ParseFloat(p.in[start:p.pos], 64)
	if err != nil {
		return 0, fmt.Errorf("%w: bad branch length %q", ErrSyntax, p.in[start:p.pos])
	}
	return v, nil
}

// String serializes the tree in Newick format with branch lengths and
// interior names, ending with ";".
func String(t *phylo.Tree) string {
	var sb strings.Builder
	if t.Root != nil {
		writeNode(&sb, t.Root)
	}
	sb.WriteByte(';')
	return sb.String()
}

func writeNode(sb *strings.Builder, n *phylo.Node) {
	if len(n.Children) > 0 {
		sb.WriteByte('(')
		for i, c := range n.Children {
			if i > 0 {
				sb.WriteByte(',')
			}
			writeNode(sb, c)
		}
		sb.WriteByte(')')
	}
	sb.WriteString(quoteLabel(n.Name))
	if n.Parent != nil {
		sb.WriteByte(':')
		sb.WriteString(strconv.FormatFloat(n.Length, 'g', -1, 64))
	}
}

// quoteLabel renders a label safely: plain if alphanumeric, otherwise
// quoted with ” escaping, with spaces written as underscores when safe.
func quoteLabel(s string) string {
	if s == "" {
		return ""
	}
	needQuote := false
	hasSpace := false
	for _, r := range s {
		switch {
		case r == ' ':
			hasSpace = true
		case r == '_' || strings.ContainsRune("(),:;[]'", r):
			needQuote = true
		}
	}
	if needQuote {
		return "'" + strings.ReplaceAll(s, "'", "''") + "'"
	}
	if hasSpace {
		return strings.ReplaceAll(s, " ", "_")
	}
	return s
}
