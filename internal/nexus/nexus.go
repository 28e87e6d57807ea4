// Package nexus reads and writes NEXUS files (Maddison, Swofford &
// Maddison 1997), "the standard data format for representing phylogenetic
// data" per the Crimson paper. TAXA, CHARACTERS/DATA and TREES blocks are
// supported, including TRANSLATE tables and interleaved matrices;
// unrecognized blocks are skipped.
package nexus

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/newick"
	"repro/internal/phylo"
)

// errFormat wraps all NEXUS parse errors.
var errFormat = errors.New("nexus: format error")

// Document is a parsed NEXUS file.
type Document struct {
	Taxa       []string
	Characters *Characters
	Trees      []NamedTree
}

// Characters holds a CHARACTERS or DATA block: aligned sequences per taxon.
type Characters struct {
	Datatype string // e.g. "DNA"
	Missing  string
	Gap      string
	Order    []string          // taxa in matrix order
	Seqs     map[string]string // taxon -> sequence
}

// NamedTree is one TREE statement from a TREES block.
type NamedTree struct {
	Name   string
	Rooted bool
	Tree   *phylo.Tree
}

// Parse reads a NEXUS document.
func Parse(r io.Reader) (*Document, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return parseString(string(raw))
}

// parseString reads a NEXUS document from a string.
func parseString(s string) (*Document, error) {
	tz := newTokenizer(s)
	first, err := tz.next()
	if err != nil {
		return nil, err
	}
	if !strings.EqualFold(first, "#NEXUS") {
		return nil, fmt.Errorf("%w: missing #NEXUS header (got %q)", errFormat, first)
	}
	doc := &Document{}
	for {
		tok, err := tz.next()
		if errors.Is(err, io.EOF) {
			return doc, nil
		}
		if err != nil {
			return nil, err
		}
		if !strings.EqualFold(tok, "BEGIN") {
			return nil, fmt.Errorf("%w: expected BEGIN, got %q", errFormat, tok)
		}
		name, err := tz.next()
		if err != nil {
			return nil, err
		}
		if _, err := tz.expect(";"); err != nil {
			return nil, err
		}
		switch strings.ToUpper(name) {
		case "TAXA":
			err = parseTaxa(tz, doc)
		case "CHARACTERS", "DATA":
			err = parseCharacters(tz, doc)
		case "TREES":
			err = parseTrees(tz, doc)
		default:
			err = skipBlock(tz)
		}
		if err != nil {
			return nil, err
		}
	}
}

func endCommand(tz *tokenizer) error {
	for {
		tok, err := tz.next()
		if err != nil {
			return err
		}
		if tz.is(tok, ";") {
			return nil
		}
	}
}

func skipBlock(tz *tokenizer) error {
	for {
		tok, err := tz.next()
		if err != nil {
			return err
		}
		if strings.EqualFold(tok, "END") || strings.EqualFold(tok, "ENDBLOCK") {
			return endCommand(tz)
		}
	}
}

func parseTaxa(tz *tokenizer, doc *Document) error {
	for {
		tok, err := tz.next()
		if err != nil {
			return err
		}
		switch {
		case strings.EqualFold(tok, "END"), strings.EqualFold(tok, "ENDBLOCK"):
			return endCommand(tz)
		case strings.EqualFold(tok, "DIMENSIONS"):
			if err := endCommand(tz); err != nil { // NTAX is implied by TAXLABELS
				return err
			}
		case strings.EqualFold(tok, "TAXLABELS"):
			for {
				lbl, err := tz.next()
				if err != nil {
					return err
				}
				if tz.is(lbl, ";") {
					break
				}
				doc.Taxa = append(doc.Taxa, lbl)
			}
		default:
			if err := endCommand(tz); err != nil {
				return err
			}
		}
	}
}

func parseCharacters(tz *tokenizer, doc *Document) error {
	ch := &Characters{Seqs: make(map[string]string)}
	for {
		tok, err := tz.next()
		if err != nil {
			return err
		}
		switch {
		case strings.EqualFold(tok, "END"), strings.EqualFold(tok, "ENDBLOCK"):
			doc.Characters = ch
			return endCommand(tz)
		case strings.EqualFold(tok, "FORMAT"):
			if err := parseFormat(tz, ch); err != nil {
				return err
			}
		case strings.EqualFold(tok, "MATRIX"):
			if err := parseMatrix(tz, ch); err != nil {
				return err
			}
		default:
			if err := endCommand(tz); err != nil {
				return err
			}
		}
	}
}

func parseFormat(tz *tokenizer, ch *Characters) error {
	for {
		tok, err := tz.next()
		if err != nil {
			return err
		}
		if tz.is(tok, ";") {
			return nil
		}
		key := strings.ToUpper(tok)
		eq, err := tz.next()
		if err != nil {
			return err
		}
		if !tz.is(eq, "=") {
			if tz.is(eq, ";") {
				return nil
			}
			continue // flag without value (e.g. INTERLEAVE)
		}
		val, err := tz.next()
		if err != nil {
			return err
		}
		if tz.punct(val) {
			return fmt.Errorf("%w: FORMAT %s has no value", errFormat, key)
		}
		switch key {
		case "DATATYPE":
			ch.Datatype = strings.ToUpper(val)
		case "MISSING":
			ch.Missing = val
		case "GAP":
			ch.Gap = val
		}
	}
}

func parseMatrix(tz *tokenizer, ch *Characters) error {
	for {
		name, err := tz.next()
		if err != nil {
			return err
		}
		if tz.is(name, ";") {
			// Rows are aligned: Write gives the matrix one NCHAR.
			for _, taxon := range ch.Order {
				if first := ch.Order[0]; len(ch.Seqs[taxon]) != len(ch.Seqs[first]) {
					return fmt.Errorf("%w: taxon %q has %d characters, taxon %q %d", errFormat,
						taxon, len(ch.Seqs[taxon]), first, len(ch.Seqs[first]))
				}
			}
			return nil
		}
		seq, err := tz.next()
		if err != nil {
			return err
		}
		if tz.punct(seq) {
			return fmt.Errorf("%w: taxon %q has no sequence", errFormat, name)
		}
		if _, seen := ch.Seqs[name]; !seen {
			ch.Order = append(ch.Order, name)
		}
		ch.Seqs[name] += seq // repeated names extend (interleaved format)
	}
}

// pendingTree is one TREE statement awaiting its Newick parse: parsing is
// deferred to the end of the TREES block so a multi-tree document fans the
// whole-tree parses out across GOMAXPROCS goroutines. The translate table
// is snapshotted per statement, preserving the immediate-application
// semantics of the serial reader (a TRANSLATE after a TREE statement does
// not retroactively rename that tree's taxa).
type pendingTree struct {
	name      string
	rooted    bool
	body      string
	translate map[string]string
}

// parsePending parses every deferred TREE body concurrently and appends
// the results to doc in statement order; the first (leftmost) failing
// statement's error is returned.
func parsePending(pending []pendingTree, doc *Document) error {
	if len(pending) == 0 {
		return nil
	}
	trees := make([]*phylo.Tree, len(pending))
	errs := make([]error, len(pending))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(pending) {
		workers = len(pending)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(pending) {
					return
				}
				t, err := newick.Parse(pending[i].body)
				if err != nil {
					errs[i] = fmt.Errorf("nexus: TREE %s: %w", pending[i].name, err)
					continue
				}
				applyTranslate(t, pending[i].translate)
				trees[i] = t
			}
		}()
	}
	wg.Wait()
	for i, p := range pending {
		if errs[i] != nil {
			return errs[i]
		}
		doc.Trees = append(doc.Trees, NamedTree{Name: p.name, Rooted: p.rooted, Tree: trees[i]})
	}
	return nil
}

func parseTrees(tz *tokenizer, doc *Document) error {
	translate := map[string]string{}
	var pending []pendingTree
	for {
		tok, err := tz.next()
		if err != nil {
			return err
		}
		switch {
		case strings.EqualFold(tok, "END"), strings.EqualFold(tok, "ENDBLOCK"):
			if err := parsePending(pending, doc); err != nil {
				return err
			}
			return endCommand(tz)
		case strings.EqualFold(tok, "TRANSLATE"):
			for {
				key, err := tz.next()
				if err != nil {
					return err
				}
				if tz.is(key, ";") {
					break
				}
				val, err := tz.next()
				if err != nil {
					return err
				}
				translate[key] = val
				sep, err := tz.next()
				if err != nil {
					return err
				}
				if tz.is(sep, ";") {
					break
				}
				if !tz.is(sep, ",") {
					return fmt.Errorf("%w: expected ',' in TRANSLATE, got %q", errFormat, sep)
				}
			}
		case strings.EqualFold(tok, "TREE"), strings.EqualFold(tok, "UTREE"):
			name, err := tz.next()
			if err != nil {
				return err
			}
			if _, err := tz.expect("="); err != nil {
				return err
			}
			rooted, body, err := tz.treeBody()
			if err != nil {
				return err
			}
			var trans map[string]string
			if len(translate) > 0 {
				trans = make(map[string]string, len(translate))
				for k, v := range translate {
					trans[k] = v
				}
			}
			pending = append(pending, pendingTree{name: name, rooted: rooted, body: body, translate: trans})
		default:
			if err := endCommand(tz); err != nil {
				return err
			}
		}
	}
}

func applyTranslate(t *phylo.Tree, translate map[string]string) {
	if len(translate) == 0 {
		return
	}
	for _, n := range t.Nodes() {
		if full, ok := translate[n.Name]; ok {
			n.Name = full
		}
	}
	t.Mutated()
}

// Write serializes a document as NEXUS.
func Write(w io.Writer, doc *Document) error {
	var sb strings.Builder
	sb.WriteString("#NEXUS\n")
	if len(doc.Taxa) > 0 {
		fmt.Fprintf(&sb, "BEGIN TAXA;\n\tDIMENSIONS NTAX=%d;\n\tTAXLABELS", len(doc.Taxa))
		for _, t := range doc.Taxa {
			sb.WriteString(" ")
			sb.WriteString(quoteWord(t))
		}
		sb.WriteString(";\nEND;\n")
	}
	if ch := doc.Characters; ch != nil && len(ch.Order) > 0 {
		nchar := len(ch.Seqs[ch.Order[0]])
		fmt.Fprintf(&sb, "BEGIN CHARACTERS;\n\tDIMENSIONS NCHAR=%d;\n", nchar)
		datatype := ch.Datatype
		if datatype == "" {
			datatype = "DNA"
		}
		fmt.Fprintf(&sb, "\tFORMAT DATATYPE=%s", quoteWord(datatype))
		if ch.Missing != "" {
			fmt.Fprintf(&sb, " MISSING=%s", quoteWord(ch.Missing))
		}
		if ch.Gap != "" {
			fmt.Fprintf(&sb, " GAP=%s", quoteWord(ch.Gap))
		}
		sb.WriteString(";\n\tMATRIX\n")
		for _, taxon := range ch.Order {
			fmt.Fprintf(&sb, "\t\t%s %s\n", quoteWord(taxon), quoteWord(ch.Seqs[taxon]))
		}
		sb.WriteString("\t;\nEND;\n")
	}
	if len(doc.Trees) > 0 {
		sb.WriteString("BEGIN TREES;\n")
		for _, nt := range doc.Trees {
			flag := "[&U]"
			if nt.Rooted {
				flag = "[&R]"
			}
			fmt.Fprintf(&sb, "\tTREE %s = %s %s\n", quoteWord(nt.Name), flag, newick.String(nt.Tree))
		}
		sb.WriteString("END;\n")
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

func quoteWord(s string) string {
	if s == "" {
		return "''"
	}
	clean := true
	for _, r := range s {
		if r == ' ' || r == '\t' || r == '\n' || strings.ContainsRune("()[]{}/\\,;:=*'\"`<>^", r) {
			clean = false
			break
		}
	}
	if clean {
		return s
	}
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

// tokenizer splits NEXUS input into words, quoted strings and punctuation,
// skipping [comments]. A quoted string is a word whatever it holds: ';' is
// the end of a command, ';' quoted a name.
type tokenizer struct {
	in     string
	pos    int
	quoted bool // the last token read was a quoted string
}

func newTokenizer(s string) *tokenizer { return &tokenizer{in: s} }

func (tz *tokenizer) skip() {
	for tz.pos < len(tz.in) {
		c := tz.in[tz.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			tz.pos++
		case c == '[':
			depth := 1
			tz.pos++
			for tz.pos < len(tz.in) && depth > 0 {
				switch tz.in[tz.pos] {
				case '[':
					depth++
				case ']':
					depth--
				}
				tz.pos++
			}
		default:
			return
		}
	}
}

const punctuation = ";=,"

// is reports whether tok, the token just read, is the punctuation mark p.
func (tz *tokenizer) is(tok, p string) bool { return !tz.quoted && tok == p }

// punct reports whether tok, the token just read, is a punctuation mark: read
// where a word (a sequence, a value) belongs, it is a format error.
func (tz *tokenizer) punct(tok string) bool {
	return !tz.quoted && len(tok) == 1 && strings.Contains(punctuation, tok)
}

func (tz *tokenizer) next() (string, error) {
	tz.skip()
	tz.quoted = false
	if tz.pos >= len(tz.in) {
		return "", io.EOF
	}
	c := tz.in[tz.pos]
	if strings.IndexByte(punctuation, c) >= 0 {
		tz.pos++
		return string(c), nil
	}
	if c == '\'' {
		tz.pos++
		tz.quoted = true
		var sb strings.Builder
		for tz.pos < len(tz.in) {
			ch := tz.in[tz.pos]
			if ch == '\'' {
				if tz.pos+1 < len(tz.in) && tz.in[tz.pos+1] == '\'' {
					sb.WriteByte('\'')
					tz.pos += 2
					continue
				}
				tz.pos++
				return sb.String(), nil
			}
			sb.WriteByte(ch)
			tz.pos++
		}
		return "", fmt.Errorf("%w: unterminated quote", errFormat)
	}
	start := tz.pos
	for tz.pos < len(tz.in) {
		c = tz.in[tz.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '[' ||
			strings.IndexByte(punctuation, c) >= 0 {
			break
		}
		tz.pos++
	}
	return tz.in[start:tz.pos], nil
}

func (tz *tokenizer) expect(tok string) (string, error) {
	got, err := tz.next()
	if err != nil {
		return "", err
	}
	if !tz.is(got, tok) {
		return "", fmt.Errorf("%w: expected %q, got %q", errFormat, tok, got)
	}
	return got, nil
}

// treeBody consumes the remainder of a TREE command up to its terminating
// ';' and returns (rooted, newickText). The [&R]/[&U] rooting comment is
// honored; other comments are dropped. Quoted labels may contain ';'.
func (tz *tokenizer) treeBody() (bool, string, error) {
	rooted := true
	var sb strings.Builder
	for tz.pos < len(tz.in) {
		c := tz.in[tz.pos]
		switch c {
		case '[':
			depth := 1
			start := tz.pos
			tz.pos++
			for tz.pos < len(tz.in) && depth > 0 {
				switch tz.in[tz.pos] {
				case '[':
					depth++
				case ']':
					depth--
				}
				tz.pos++
			}
			if strings.EqualFold(strings.TrimSpace(tz.in[start:tz.pos]), "[&U]") {
				rooted = false
			}
		case '\'':
			sb.WriteByte(c)
			tz.pos++
			for tz.pos < len(tz.in) {
				ch := tz.in[tz.pos]
				sb.WriteByte(ch)
				tz.pos++
				if ch == '\'' {
					if tz.pos < len(tz.in) && tz.in[tz.pos] == '\'' {
						sb.WriteByte('\'')
						tz.pos++
						continue
					}
					break
				}
			}
		case ';':
			tz.pos++
			return rooted, sb.String() + ";", nil
		default:
			sb.WriteByte(c)
			tz.pos++
		}
	}
	return rooted, "", fmt.Errorf("%w: unterminated TREE command", errFormat)
}
