package core

import (
	"fmt"
	"path"
	"path/filepath"
	"slices"
	"strings"
)

// IncludeResolver loads the source of an %INCLUDE target by name. The
// gateway resolves includes inside its macro directory.
type IncludeResolver func(name string) (string, error)

// InsideDir resolves a macro name or an %INCLUDE target to a file inside
// the macro directory dir: its slash path relative to dir, and the file. A
// name that is empty or climbs out of dir is refused (Section 5: the
// gateway must not become a file oracle).
func InsideDir(dir, name string) (rel, file string, err error) {
	rel = path.Clean("/" + name)[1:]
	if rel == "" || strings.Contains(rel, "..") {
		return "", "", fmt.Errorf("%q escapes the macro directory", name)
	}
	return rel, filepath.Join(dir, filepath.FromSlash(rel)), nil
}

// maxIncludeDepth bounds %INCLUDE nesting. A cycle never reaches it: the
// include stack finds the cycle first.
const maxIncludeDepth = 16

// IncludeError is an %INCLUDE the parser could not splice in, at Line of
// Macro: a target the resolver could not read (Err), or one the parse is
// already inside (Cycle, the include chain from the target back to it).
type IncludeError struct {
	Macro, Target string
	Line          int
	Cycle         []string
	Err           error
}

func (e *IncludeError) Error() string {
	if e.Cycle != nil {
		return errAt(e.Macro, e.Line, "%%INCLUDE cycle: %s", strings.Join(e.Cycle, " -> ")).Error()
	}
	return errAt(e.Macro, e.Line, "%%INCLUDE %q: %v", e.Target, e.Err).Error()
}

// Parse parses macro source text without include support; an %INCLUDE
// directive is an error. name is used in error messages.
func Parse(name, src string) (*Macro, error) {
	return ParseWithIncludes(name, src, nil)
}

// ParseWithIncludes parses macro source text, resolving %INCLUDE "file"
// directives through resolver. A nil resolver rejects includes.
func ParseWithIncludes(name, src string, resolver IncludeResolver) (*Macro, error) {
	return parse(name, src, &includes{resolve: resolver})
}

// ParseLenient parses as ParseWithIncludes does, except that an %INCLUDE
// whose target the resolver cannot read, or that closes a cycle, splices
// nothing and the parse goes on. It returns those includes, in the order
// the parse meets them, whatever the outcome: the linter reports each and
// still lints the rest.
func ParseLenient(name, src string, resolver IncludeResolver) (*Macro, []*IncludeError, error) {
	inc := &includes{resolve: resolver, lenient: true}
	m, err := parse(name, src, inc)
	return m, inc.skipped, err
}

// includes is one parse's %INCLUDE state: the files it is inside, outermost
// first, and, when lenient, the includes it could not splice.
type includes struct {
	resolve IncludeResolver
	stack   []string
	lenient bool
	skipped []*IncludeError
}

func parse(name, src string, inc *includes) (*Macro, error) {
	m := &Macro{Name: name, Source: src}
	if err := parseInto(m, name, src, inc); err != nil {
		return nil, err
	}
	if err := validate(m); err != nil {
		return nil, err
	}
	compileTemplates(m)
	buildDefTables(m)
	return m, nil
}

// parseInto appends name/src's sections to m, recursing for includes.
func parseInto(m *Macro, name, src string, inc *includes) error {
	if len(inc.stack) > maxIncludeDepth {
		return errAt(name, 0, "%%INCLUDE nesting exceeds %d levels", maxIncludeDepth)
	}
	inc.stack = append(inc.stack, name)
	defer func() { inc.stack = inc.stack[:len(inc.stack)-1] }()
	p := &macroParser{name: name, src: src, line: 1}
	for {
		p.skipSpace()
		if p.eof() {
			return nil
		}
		if p.cur() != '%' {
			return errAt(name, p.line, "unexpected text outside a section (sections start with %%KEYWORD)")
		}
		if p.keywordAt() == "INCLUDE" {
			incLine := p.line
			target, err := p.parseIncludeTarget()
			if err != nil {
				return err
			}
			if inc.resolve == nil {
				return errAt(name, incLine, "%%INCLUDE is not available here (no include resolver configured)")
			}
			ie := &IncludeError{Macro: name, Target: target, Line: incLine}
			var incSrc string
			if i := slices.Index(inc.stack, target); i >= 0 {
				ie.Cycle = append(slices.Clone(inc.stack[i:]), target)
			} else {
				incSrc, ie.Err = inc.resolve(target)
			}
			if ie.Cycle != nil || ie.Err != nil {
				if !inc.lenient {
					return ie
				}
				inc.skipped = append(inc.skipped, ie)
				continue
			}
			if err := parseInto(m, target, incSrc, inc); err != nil {
				return err
			}
			continue
		}
		sec, err := p.parseSection()
		if err != nil {
			return err
		}
		if sec != nil {
			m.Sections = append(m.Sections, sec)
		}
	}
}

// parseIncludeTarget consumes `%INCLUDE "name"` (or an unquoted name to
// end of line) and returns the include target.
func (p *macroParser) parseIncludeTarget() (string, error) {
	p.advance(1 + len("INCLUDE"))
	for !p.eof() && (p.cur() == ' ' || p.cur() == '\t') {
		p.advance(1)
	}
	if !p.eof() && p.cur() == '"' {
		p.advance(1)
		start := p.pos
		for !p.eof() && p.cur() != '"' && p.cur() != '\n' {
			p.advance(1)
		}
		if p.eof() || p.cur() != '"' {
			return "", errAt(p.name, p.line, "unterminated %%INCLUDE file name")
		}
		target := p.src[start:p.pos]
		p.advance(1)
		return target, nil
	}
	start := p.pos
	for !p.eof() && p.cur() != '\n' && p.cur() != ' ' && p.cur() != '\t' {
		p.advance(1)
	}
	target := strings.TrimSpace(p.src[start:p.pos])
	if target == "" {
		return "", errAt(p.name, p.line, "%%INCLUDE requires a file name")
	}
	return target, nil
}

// validate enforces structural rules the paper states: at most one HTML
// input and one HTML report section, at most one unnamed %EXEC_SQL in the
// report, unique SQL section names, and non-nested sections (guaranteed
// by construction).
func validate(m *Macro) error {
	inputs, reports := 0, 0
	for _, s := range m.Sections {
		h, ok := s.(*HTMLSection)
		if !ok {
			continue
		}
		if h.Report {
			reports++
			unnamed := 0
			for _, it := range h.Items {
				if it.ExecSQL && it.SQLName == "" {
					unnamed++
				}
			}
			if unnamed > 1 {
				return errAt(m.Name, h.Line,
					"at most one unnamed %%EXEC_SQL is allowed in an HTML report section")
			}
		} else {
			inputs++
		}
	}
	if inputs > 1 {
		return errAt(m.Name, 0, "macro has %d %%HTML_INPUT sections, at most 1 allowed", inputs)
	}
	if reports > 1 {
		return errAt(m.Name, 0, "macro has %d %%HTML_REPORT sections, at most 1 allowed", reports)
	}
	seen := map[string]int{}
	for _, q := range m.SQLSections() {
		if q.SectName == "" {
			continue
		}
		if prev, dup := seen[q.SectName]; dup {
			return errAt(m.Name, q.Line,
				"duplicate SQL section name %q (first defined at line %d)", q.SectName, prev)
		}
		seen[q.SectName] = q.Line
	}
	return nil
}

type macroParser struct {
	name string
	src  string
	pos  int
	line int
}

func (p *macroParser) eof() bool    { return p.pos >= len(p.src) }
func (p *macroParser) cur() byte    { return p.src[p.pos] }
func (p *macroParser) rest() string { return p.src[p.pos:] }

func (p *macroParser) advance(n int) {
	for i := 0; i < n && p.pos < len(p.src); i++ {
		if p.src[p.pos] == '\n' {
			p.line++
		}
		p.pos++
	}
}

func (p *macroParser) skipSpace() {
	for !p.eof() {
		switch p.cur() {
		case ' ', '\t', '\r', '\n', '\f', '\v':
			p.advance(1)
		default:
			return
		}
	}
}

// keywordAt reads the %KEYWORD at the current position (which must be at
// '%'). It returns the upper-cased keyword ("" when '%' is not followed
// by a letter) without consuming input.
func (p *macroParser) keywordAt() string {
	i := p.pos + 1
	start := i
	for i < len(p.src) && (isWordByte(p.src[i])) {
		i++
	}
	return strings.ToUpper(p.src[start:i])
}

func isWordByte(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

func (p *macroParser) parseSection() (Section, error) {
	startLine := p.line
	kw := p.keywordAt()
	switch kw {
	case "":
		// "%{" comment block
		if strings.HasPrefix(p.rest(), "%{") {
			p.advance(2)
			body, err := p.readBlockBody()
			if err != nil {
				return nil, err
			}
			return &CommentSection{Text: body, Line: startLine}, nil
		}
		return nil, errAt(p.name, p.line, "stray %% at top level")
	case "DEFINE":
		p.advance(1 + len(kw))
		return p.parseDefine(startLine)
	case "SQL":
		p.advance(1 + len(kw))
		return p.parseSQL(startLine)
	case "HTML_INPUT":
		p.advance(1 + len(kw))
		items, err := p.parseHTMLBody(false)
		if err != nil {
			return nil, err
		}
		return &HTMLSection{Report: false, Items: items, Line: startLine}, nil
	case "HTML_REPORT":
		p.advance(1 + len(kw))
		items, err := p.parseHTMLBody(true)
		if err != nil {
			return nil, err
		}
		return &HTMLSection{Report: true, Items: items, Line: startLine}, nil
	default:
		return nil, errAt(p.name, p.line, "unknown section keyword %%%s", kw)
	}
}

// expectOpenBrace consumes optional spaces then a '{'.
func (p *macroParser) expectOpenBrace(what string) error {
	for !p.eof() && (p.cur() == ' ' || p.cur() == '\t') {
		p.advance(1)
	}
	if p.eof() || p.cur() != '{' {
		return errAt(p.name, p.line, "expected '{' to open %s block", what)
	}
	p.advance(1)
	return nil
}

// readBlockBody captures raw text from after an opening '{' to its
// matching "%}" terminator, honouring nested "%KEYWORD{" and "%{" blocks.
// The terminator is consumed; the body is returned without it.
func (p *macroParser) readBlockBody() (string, error) {
	start := p.pos
	depth := 0
	for !p.eof() {
		if p.cur() == '%' {
			rest := p.rest()
			if strings.HasPrefix(rest, "%}") {
				if depth == 0 {
					body := p.src[start:p.pos]
					p.advance(2)
					return body, nil
				}
				depth--
				p.advance(2)
				continue
			}
			// %KEYWORD ... { opens a nested block (e.g. %SQL_REPORT{,
			// %ROW{); plain %{ does too.
			if kw := p.keywordAt(); kw != "" {
				j := p.pos + 1 + len(kw)
				// allow "(name)" between keyword and '{'
				k := j
				if k < len(p.src) && p.src[k] == '(' {
					for k < len(p.src) && p.src[k] != ')' {
						k++
					}
					if k < len(p.src) {
						k++
					}
				}
				for k < len(p.src) && (p.src[k] == ' ' || p.src[k] == '\t') {
					k++
				}
				if k < len(p.src) && p.src[k] == '{' {
					depth++
					p.advance(k + 1 - p.pos)
					continue
				}
			} else if strings.HasPrefix(rest, "%{") {
				depth++
				p.advance(2)
				continue
			}
		}
		p.advance(1)
	}
	return "", errAt(p.name, p.line, "unterminated block: missing %%}")
}

// readDefineBody captures the raw body of a %DEFINE{ ... %} block. Unlike
// readBlockBody it understands the DEFINE-internal value syntax: a "%}"
// inside a quoted string or inside a {...%} multi-line value does not
// terminate the section (for {...%} values, the inner "%}" is the value
// terminator and the section continues after it).
func (p *macroParser) readDefineBody() (string, error) {
	start := p.pos
	startLine := p.line
	for !p.eof() {
		switch c := p.cur(); c {
		case '"':
			p.advance(1)
			for !p.eof() && p.cur() != '"' {
				p.advance(1)
			}
			if p.eof() {
				return "", errAt(p.name, startLine, "unterminated string in %%DEFINE block")
			}
			p.advance(1)
		case '{':
			p.advance(1)
			for !p.eof() && !strings.HasPrefix(p.rest(), "%}") {
				p.advance(1)
			}
			if p.eof() {
				return "", errAt(p.name, startLine, "unterminated {...%%} value in %%DEFINE block")
			}
			p.advance(2)
		case '%':
			if strings.HasPrefix(p.rest(), "%}") {
				body := p.src[start:p.pos]
				p.advance(2)
				return body, nil
			}
			p.advance(1)
		default:
			p.advance(1)
		}
	}
	return "", errAt(p.name, startLine, "unterminated %%DEFINE block: missing %%}")
}

// --- %DEFINE ---

func (p *macroParser) parseDefine(startLine int) (Section, error) {
	// Block form: %DEFINE{ ... %}   Line form: %DEFINE stmt\n
	save := p.pos
	for !p.eof() && (p.cur() == ' ' || p.cur() == '\t') {
		p.advance(1)
	}
	if !p.eof() && p.cur() == '{' {
		p.advance(1)
		bodyLine := p.line
		body, err := p.readDefineBody()
		if err != nil {
			return nil, err
		}
		stmts, err := parseDefineStmts(p.name, body, bodyLine)
		if err != nil {
			return nil, err
		}
		return &DefineSection{Stmts: stmts, Line: startLine}, nil
	}
	p.pos = save
	// Line form: capture to end of line.
	end := strings.IndexByte(p.rest(), '\n')
	var lineText string
	if end < 0 {
		lineText = p.rest()
		p.advance(len(lineText))
	} else {
		lineText = p.rest()[:end]
		p.advance(end + 1)
	}
	stmts, err := parseDefineStmts(p.name, lineText, startLine)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, errAt(p.name, startLine, "line-form %%DEFINE must contain exactly one statement")
	}
	return &DefineSection{Stmts: stmts, Line: startLine}, nil
}

// defineLexer tokenizes the contents of a DEFINE section.
type defineLexer struct {
	macro string
	src   string
	pos   int
	line  int
}

type defTok struct {
	kind string // "ident", "str", "block", "=", "?", ":", "%LIST", "%EXEC", "eof"
	text string
	line int
}

func (l *defineLexer) next() (defTok, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v' {
			l.pos++
			continue
		}
		if c == '\n' {
			l.line++
			l.pos++
			continue
		}
		break
	}
	if l.pos >= len(l.src) {
		return defTok{kind: "eof", line: l.line}, nil
	}
	start := l.line
	c := l.src[l.pos]
	switch {
	case c == '=':
		l.pos++
		return defTok{kind: "=", line: start}, nil
	case c == '?':
		l.pos++
		return defTok{kind: "?", line: start}, nil
	case c == ':':
		l.pos++
		return defTok{kind: ":", line: start}, nil
	case c == '"':
		l.pos++
		s := l.pos
		for l.pos < len(l.src) && l.src[l.pos] != '"' {
			if l.src[l.pos] == '\n' {
				l.line++
			}
			l.pos++
		}
		if l.pos >= len(l.src) {
			return defTok{}, errAt(l.macro, start, "unterminated string in DEFINE section")
		}
		text := l.src[s:l.pos]
		l.pos++
		return defTok{kind: "str", text: text, line: start}, nil
	case c == '{':
		l.pos++
		s := l.pos
		for l.pos < len(l.src) {
			if l.src[l.pos] == '%' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '}' {
				text := l.src[s:l.pos]
				l.pos += 2
				return defTok{kind: "block", text: text, line: start}, nil
			}
			if l.src[l.pos] == '\n' {
				l.line++
			}
			l.pos++
		}
		return defTok{}, errAt(l.macro, start, "unterminated {...%%} value in DEFINE section")
	case c == '%':
		s := l.pos + 1
		e := s
		for e < len(l.src) && isWordByte(l.src[e]) {
			e++
		}
		kw := strings.ToUpper(l.src[s:e])
		l.pos = e
		switch kw {
		case "LIST":
			return defTok{kind: "%LIST", line: start}, nil
		case "EXEC":
			return defTok{kind: "%EXEC", line: start}, nil
		default:
			return defTok{}, errAt(l.macro, start, "unexpected %%%s in DEFINE section", kw)
		}
	case isWordByte(c) && !(c >= '0' && c <= '9'):
		s := l.pos
		for l.pos < len(l.src) && isWordByte(l.src[l.pos]) {
			l.pos++
		}
		return defTok{kind: "ident", text: l.src[s:l.pos], line: start}, nil
	default:
		return defTok{}, errAt(l.macro, start, "unexpected character %q in DEFINE section", string(c))
	}
}

// parseDefineStmts parses the body of a DEFINE section into statements.
func parseDefineStmts(macro, body string, startLine int) ([]DefineStmt, error) {
	lx := &defineLexer{macro: macro, src: body, line: startLine}
	var out []DefineStmt
	tok, err := lx.next()
	if err != nil {
		return nil, err
	}
	for tok.kind != "eof" {
		switch tok.kind {
		case "%LIST":
			sep, err := lx.next()
			if err != nil {
				return nil, err
			}
			if sep.kind != "str" && sep.kind != "block" {
				return nil, errAt(macro, sep.line, "%%LIST requires a quoted separator string")
			}
			name, err := lx.next()
			if err != nil {
				return nil, err
			}
			if name.kind != "ident" {
				return nil, errAt(macro, name.line, "%%LIST requires a variable name")
			}
			out = append(out, DefineStmt{Kind: DefList, Name: name.text, Sep: sep.text, Line: tok.line})
		case "ident":
			stmt, err := parseAssignment(macro, lx, tok)
			if err != nil {
				return nil, err
			}
			out = append(out, stmt)
		default:
			return nil, errAt(macro, tok.line, "expected a define statement, got %q", tok.kind)
		}
		tok, err = lx.next()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// parseAssignment parses "name = ..." statements in their four forms.
func parseAssignment(macro string, lx *defineLexer, name defTok) (DefineStmt, error) {
	eq, err := lx.next()
	if err != nil {
		return DefineStmt{}, err
	}
	if eq.kind != "=" {
		return DefineStmt{}, errAt(macro, eq.line, "expected '=' after variable name %q", name.text)
	}
	tok, err := lx.next()
	if err != nil {
		return DefineStmt{}, err
	}
	switch tok.kind {
	case "%EXEC":
		cmd, err := lx.next()
		if err != nil {
			return DefineStmt{}, err
		}
		if cmd.kind != "str" && cmd.kind != "block" {
			return DefineStmt{}, errAt(macro, cmd.line, "%%EXEC requires a quoted command string")
		}
		return DefineStmt{Kind: DefExec, Name: name.text, Value: cmd.text, Line: name.line}, nil
	case "?":
		// form (b)/(d): var = ? "value"
		val, err := lx.next()
		if err != nil {
			return DefineStmt{}, err
		}
		if val.kind != "str" && val.kind != "block" {
			return DefineStmt{}, errAt(macro, val.line, "conditional assignment requires a value string")
		}
		return DefineStmt{Kind: DefCondSelf, Name: name.text, Value: val.text, Line: name.line}, nil
	case "ident":
		// form (a)/(c): var = testvar ? "v1" : "v2"
		q, err := lx.next()
		if err != nil {
			return DefineStmt{}, err
		}
		if q.kind != "?" {
			return DefineStmt{}, errAt(macro, q.line,
				"expected '?' after test variable %q (bare identifiers are not value strings; quote the value)", tok.text)
		}
		v1, err := lx.next()
		if err != nil {
			return DefineStmt{}, err
		}
		if v1.kind != "str" && v1.kind != "block" {
			return DefineStmt{}, errAt(macro, v1.line, "conditional assignment requires a value string")
		}
		stmt := DefineStmt{Kind: DefCondTest, Name: name.text, TestVar: tok.text,
			Value: v1.text, Line: name.line}
		// optional ': v2'
		save := *lx
		colon, err := lx.next()
		if err != nil {
			return DefineStmt{}, err
		}
		if colon.kind == ":" {
			v2, err := lx.next()
			if err != nil {
				return DefineStmt{}, err
			}
			if v2.kind != "str" && v2.kind != "block" {
				return DefineStmt{}, errAt(macro, v2.line, "expected value string after ':'")
			}
			stmt.Value2 = v2.text
			stmt.HasElse = true
		} else {
			*lx = save
		}
		return stmt, nil
	case "str", "block":
		return DefineStmt{Kind: DefSimple, Name: name.text, Value: tok.text, Line: name.line}, nil
	default:
		return DefineStmt{}, errAt(macro, tok.line, "expected a value after '=' for %q", name.text)
	}
}

// --- %SQL ---

func (p *macroParser) parseSQL(startLine int) (Section, error) {
	sec := &SQLSection{Line: startLine}
	for !p.eof() && (p.cur() == ' ' || p.cur() == '\t') {
		p.advance(1)
	}
	if !p.eof() && p.cur() == '(' {
		p.advance(1)
		s := p.pos
		for !p.eof() && p.cur() != ')' {
			p.advance(1)
		}
		if p.eof() {
			return nil, errAt(p.name, startLine, "unterminated SQL section name")
		}
		sec.SectName = strings.TrimSpace(p.src[s:p.pos])
		p.advance(1)
	}
	if err := p.expectOpenBrace("%SQL"); err != nil {
		return nil, err
	}
	bodyLine := p.line
	body, err := p.readBlockBody()
	if err != nil {
		return nil, err
	}
	cmd, report, message, err := splitSQLBody(p.name, body, bodyLine)
	if err != nil {
		return nil, err
	}
	sec.Command = strings.TrimSpace(cmd)
	lead := len(cmd) - len(strings.TrimLeft(cmd, " \t\r\n\f\v"))
	sec.CmdLine = bodyLine + strings.Count(cmd[:lead], "\n")
	sec.Report = report
	sec.Message = message
	if sec.Command == "" {
		return nil, errAt(p.name, startLine, "SQL section contains no SQL command")
	}
	return sec, nil
}

// splitSQLBody extracts %SQL_REPORT and %SQL_MESSAGE sub-blocks from a
// SQL section body; the remainder is the SQL command text.
func splitSQLBody(macro, body string, line int) (cmd string, rep *ReportBlock, msg *MessageBlock, err error) {
	sp := &macroParser{name: macro, src: body, line: line}
	var cmdParts []string
	textStart := 0
	for !sp.eof() {
		if sp.cur() == '%' {
			kw := sp.keywordAt()
			if kw == "SQL_REPORT" || kw == "SQL_MESSAGE" {
				cmdParts = append(cmdParts, sp.src[textStart:sp.pos])
				sp.advance(1 + len(kw))
				if err := sp.expectOpenBrace("%" + kw); err != nil {
					return "", nil, nil, err
				}
				subLine := sp.line
				sub, err := sp.readBlockBody()
				if err != nil {
					return "", nil, nil, err
				}
				if kw == "SQL_REPORT" {
					if rep != nil {
						return "", nil, nil, errAt(macro, subLine, "duplicate %%SQL_REPORT block")
					}
					rep, err = parseReportBlock(macro, sub, subLine)
					if err != nil {
						return "", nil, nil, err
					}
				} else {
					if msg != nil {
						return "", nil, nil, errAt(macro, subLine, "duplicate %%SQL_MESSAGE block")
					}
					msg, err = parseMessageBlock(macro, sub, subLine)
					if err != nil {
						return "", nil, nil, err
					}
				}
				textStart = sp.pos
				continue
			}
		}
		sp.advance(1)
	}
	cmdParts = append(cmdParts, sp.src[textStart:])
	return strings.Join(cmdParts, ""), rep, msg, nil
}

// parseReportBlock splits a %SQL_REPORT body into header, %ROW template,
// and footer. A second %ROW block is an error at its own line.
func parseReportBlock(macro, body string, line int) (*ReportBlock, error) {
	sp := &macroParser{name: macro, src: body, line: line}
	// No %ROW block: the whole body is the header.
	rb := &ReportBlock{Header: body, Line: line}
	for !sp.eof() {
		if sp.cur() != '%' || sp.keywordAt() != "ROW" {
			sp.advance(1)
			continue
		}
		if rb.HasRow {
			// Past the block, %ROW opens a second one only when '{'
			// follows; otherwise it is footer text.
			if strings.HasPrefix(strings.TrimLeft(body[sp.pos+1+len("ROW"):], " \t"), "{") {
				return nil, errAt(macro, sp.line, "duplicate %%ROW block in %%SQL_REPORT")
			}
			sp.advance(1)
			continue
		}
		rb.Header = body[:sp.pos]
		sp.advance(1 + len("ROW"))
		if err := sp.expectOpenBrace("%ROW"); err != nil {
			return nil, err
		}
		row, err := sp.readBlockBody()
		if err != nil {
			return nil, err
		}
		rb.Row, rb.HasRow, rb.Footer = row, true, sp.rest()
	}
	return rb, nil
}

// parseMessageBlock parses %SQL_MESSAGE entries. Each entry occupies one
// logical line:
//
//	code : "html text" [: continue|exit]
//
// where code is a SQLSTATE (e.g. 23505), "+100" for the no-rows
// condition, or "default". The disposition defaults to "continue".
func parseMessageBlock(macro, body string, line int) (*MessageBlock, error) {
	mb := &MessageBlock{Line: line}
	ln := line
	for _, raw := range strings.Split(body, "\n") {
		text := strings.TrimSpace(raw)
		curLine := ln
		ln++
		if text == "" {
			continue
		}
		ci := strings.IndexByte(text, ':')
		if ci < 0 {
			return nil, errAt(macro, curLine, "malformed %%SQL_MESSAGE entry %q (want code : \"text\" [: continue|exit])", text)
		}
		code := strings.TrimSpace(text[:ci])
		rest := strings.TrimSpace(text[ci+1:])
		if len(rest) == 0 || rest[0] != '"' {
			return nil, errAt(macro, curLine, "message text for %q must be a quoted string", code)
		}
		end := strings.IndexByte(rest[1:], '"')
		if end < 0 {
			return nil, errAt(macro, curLine, "unterminated message text for %q", code)
		}
		entry := MessageEntry{Code: code, Text: rest[1 : 1+end], Line: curLine}
		tail := strings.TrimSpace(rest[end+2:])
		if tail != "" {
			if len(tail) == 0 || tail[0] != ':' {
				return nil, errAt(macro, curLine, "unexpected trailing text %q in message entry", tail)
			}
			disp := strings.ToLower(strings.TrimSpace(tail[1:]))
			switch disp {
			case "continue":
			case "exit":
				entry.Exit = true
			default:
				return nil, errAt(macro, curLine, "message disposition must be continue or exit, got %q", disp)
			}
		}
		mb.Entries = append(mb.Entries, entry)
	}
	return mb, nil
}

// --- %HTML_INPUT / %HTML_REPORT ---

// parseHTMLBody parses the body of an HTML section into text chunks,
// %EXEC_SQL directives (report sections only), and %IF blocks.
func (p *macroParser) parseHTMLBody(report bool) ([]HTMLItem, error) {
	if err := p.expectOpenBrace("HTML section"); err != nil {
		return nil, err
	}
	bodyLine := p.line
	body, err := p.readBlockBody()
	if err != nil {
		return nil, err
	}
	sp := &macroParser{name: p.name, src: body, line: bodyLine}
	items, stop, err := sp.parseHTMLItems(report, 0)
	if err != nil {
		return nil, err
	}
	if stop != "" {
		return nil, errAt(p.name, sp.line, "%%%s without a matching %%IF", stop)
	}
	return items, nil
}

// parseParenArg consumes a parenthesised argument "( ... )" honouring
// nested parens, returning the trimmed content.
func (p *macroParser) parseParenArg(what string) (string, error) {
	startLine := p.line
	if p.eof() || p.cur() != '(' {
		return "", errAt(p.name, startLine, "%s requires a parenthesised argument", what)
	}
	p.advance(1)
	s := p.pos
	depth := 0
	for !p.eof() {
		switch p.cur() {
		case '(':
			depth++
		case ')':
			if depth == 0 {
				arg := strings.TrimSpace(p.src[s:p.pos])
				p.advance(1)
				return arg, nil
			}
			depth--
		}
		p.advance(1)
	}
	return "", errAt(p.name, startLine, "unterminated %s argument", what)
}

// maxIfNesting bounds how deep %IF blocks nest. The parser, the renderer
// and every walk over HTML items recurse once per level; the deepest %IF of
// testdata/, examples/ and benchmark/macros is 2 levels.
const maxIfNesting = 128

// parseHTMLItems parses items, inside depth %IF blocks, until end of input
// or an %ELIF/%ELSE/%ENDIF terminator (whose keyword — but not its argument
// — has been consumed; the terminator keyword is returned in stop).
func (sp *macroParser) parseHTMLItems(report bool, depth int) (items []HTMLItem, stop string, err error) {
	textStart := sp.pos
	flush := func(end int) {
		if end > textStart {
			items = append(items, HTMLItem{Text: sp.src[textStart:end], Line: sp.line})
		}
	}
	for !sp.eof() {
		if sp.cur() != '%' {
			sp.advance(1)
			continue
		}
		switch kw := sp.keywordAt(); kw {
		case "EXEC_SQL":
			if !report {
				return nil, "", errAt(sp.name, sp.line, "%%EXEC_SQL is only allowed in %%HTML_REPORT sections")
			}
			dirLine := sp.line
			flush(sp.pos)
			sp.advance(1 + len(kw))
			item := HTMLItem{ExecSQL: true, Line: dirLine}
			if !sp.eof() && sp.cur() == '(' {
				name, err := sp.parseParenArg("%EXEC_SQL")
				if err != nil {
					return nil, "", err
				}
				if name == "" {
					return nil, "", errAt(sp.name, dirLine, "%%EXEC_SQL() requires a section name")
				}
				item.SQLName = name
			}
			items = append(items, item)
			textStart = sp.pos
		case "IF":
			ifLine := sp.line
			if depth == maxIfNesting {
				return nil, "", errAt(sp.name, ifLine, "%%IF nesting exceeds %d levels", maxIfNesting)
			}
			flush(sp.pos)
			sp.advance(1 + len(kw))
			cond, err := sp.parseParenArg("%IF")
			if err != nil {
				return nil, "", err
			}
			block := &CondBlock{Line: ifLine}
			arm := CondArm{Line: ifLine}
			arm.Left, arm.Op, arm.Right = splitCondition(cond)
			for {
				body, innerStop, err := sp.parseHTMLItems(report, depth+1)
				if err != nil {
					return nil, "", err
				}
				arm.Items = body
				if block.Else == nil {
					block.Arms = append(block.Arms, arm)
				} else {
					block.Else = body
				}
				switch innerStop {
				case "ENDIF":
					items = append(items, HTMLItem{Cond: block, Line: ifLine})
					textStart = sp.pos
				case "ELIF":
					if block.Else != nil {
						return nil, "", errAt(sp.name, sp.line, "%%ELIF after %%ELSE")
					}
					cond, err := sp.parseParenArg("%ELIF")
					if err != nil {
						return nil, "", err
					}
					arm = CondArm{Line: sp.line}
					arm.Left, arm.Op, arm.Right = splitCondition(cond)
					continue
				case "ELSE":
					if block.Else != nil {
						return nil, "", errAt(sp.name, sp.line, "duplicate %%ELSE")
					}
					block.Else = []HTMLItem{} // non-nil marks the ELSE branch open
					arm = CondArm{}
					continue
				default:
					return nil, "", errAt(sp.name, ifLine, "%%IF without a matching %%ENDIF")
				}
				break
			}
		case "ELIF", "ELSE", "ENDIF":
			flush(sp.pos)
			sp.advance(1 + len(kw))
			return items, kw, nil
		default:
			sp.advance(1)
		}
	}
	flush(len(sp.src))
	return items, "", nil
}

// condOps are the comparison operators of %IF conditions, longest first.
var condOps = []string{"==", "!=", "<=", ">=", "<", ">"}

// splitCondition splits an %IF condition into left/op/right at the first
// operator outside double quotes; quotes around a side are stripped. A
// condition without an operator is a truthiness test.
func splitCondition(cond string) (left, op, right string) {
	inQuote := false
	for i := 0; i < len(cond); i++ {
		c := cond[i]
		if c == '"' {
			inQuote = !inQuote
			continue
		}
		if inQuote {
			continue
		}
		for _, cand := range condOps {
			if strings.HasPrefix(cond[i:], cand) {
				return stripQuotes(cond[:i]), cand, stripQuotes(cond[i+len(cand):])
			}
		}
	}
	return stripQuotes(cond), "", ""
}

func stripQuotes(s string) string {
	s = strings.TrimSpace(s)
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		return s[1 : len(s)-1]
	}
	return s
}
