package sqldb

import "strings"

// parser is a recursive-descent parser over the token stream. Grammar is a
// practical SQL-92 subset; see package doc for the supported surface.
type parser struct {
	toks  []token
	pos   int
	nprm  int // number of ? parameters seen so far
	depth int // levels of nesting open at pos; see nest
}

// maxNesting bounds the nesting of a statement (nest). The deepest
// statement of the golden corpus, testdata/, examples/ and
// benchmark/macros nests 4 levels, the deepest of the optimiser's
// generated statements and the engine's own tests 8; the bound is 125
// times that. A statement past it is SQLSTATE 54001, DB2's "statement too
// long or too complex".
const maxNesting = 1000

// nest opens one more level of nesting: an expression parsed inside
// another (parentheses, CASE, an IN list, a function's arguments), NOT
// and unary minus, and each further
// operator of a chain such as a OR b OR c, which deepens the tree without
// recursing here. This is the one place the depth of a parsed tree is
// bounded. Every later walk over the tree — the compiler, the planner,
// eval, walkExpr, the EXPLAIN printer, Check — recurses no deeper than a
// few frames per level counted here, so one request can exhaust neither
// the parser's stack nor theirs: a statement too deep is refused before
// anything recurses over it. The caller closes the level by decrementing
// depth.
func (p *parser) nest() error {
	if p.depth++; p.depth > maxNesting {
		return &Error{Code: CodeTooComplex, Message: "statement too complex"}
	}
	return nil
}

// Parse parses a single SQL statement. A trailing semicolon is permitted.
func Parse(src string) (Stmt, error) {
	toks, err := lexSQL(src)
	if err != nil {
		return nil, err
	}
	return parseTokens(toks)
}

// parseTokens parses a single statement from an already-lexed token
// stream. The plan cache calls this directly with its parameterized
// token rewrite, skipping a second lex of the statement text.
func parseTokens(toks []token) (Stmt, error) {
	p := &parser{toks: toks}
	st, err := p.parseStatement()
	if err != nil {
		return nil, p.errAt(err)
	}
	p.acceptOp(";")
	if !p.atEOF() {
		return nil, p.errAt(errSyntax("unexpected %s after statement", p.peek().describe()))
	}
	return st, nil
}

// errAt stamps a parse error with the byte offset of the token the parser
// stopped at — the expect helpers fail without advancing, so this is the
// offending token for the common failure paths. Offsets already set (or
// non-Error values) pass through untouched. A syntax error at SQL the
// engine does not serve is that SQL's 0A000 instead.
func (p *parser) errAt(err error) error {
	if e, ok := err.(*Error); ok && e.Off == 0 && p.pos < len(p.toks) {
		e.Off = p.toks[p.pos].pos + 1
		if what := unsupportedAt(p.toks, p.pos); what != "" && e.Code == CodeSyntax {
			e.Code, e.Message = CodeFeature, what+" is not supported"
		}
	}
	return err
}

// unsupportedKeywords are the keywords of SQL the engine reads no further
// than to refuse it: no macro, example or workload of the system sends it.
var unsupportedKeywords = map[string]string{
	"UNION": "UNION", "HAVING": "HAVING", "DISTINCT": "DISTINCT",
	"LIMIT": "LIMIT", "OFFSET": "OFFSET", "FETCH": "FETCH FIRST",
	"ALTER": "ALTER TABLE", "BETWEEN": "BETWEEN", "CAST": "CAST",
	"ESCAPE": "LIKE ... ESCAPE",
}

// unsupportedAt names the unsupported SQL that begins at toks[i], "" when
// none does: one of unsupportedKeywords, the || operator, or a subquery,
// which the parser meets as "(" SELECT — stopped at either token — or as
// EXISTS "(".
func unsupportedAt(toks []token, i int) string {
	is := func(j int, kind tokKind, text string) bool {
		return j >= 0 && j < len(toks) && toks[j].kind == kind && toks[j].text == text
	}
	switch t := toks[i]; {
	case t.kind == tkKeyword && unsupportedKeywords[t.text] != "":
		return unsupportedKeywords[t.text]
	case is(i, tkOp, "||"):
		return "the || operator"
	case is(i-1, tkOp, "(") && is(i, tkKeyword, "SELECT"),
		is(i, tkOp, "(") && is(i+1, tkKeyword, "SELECT"),
		is(i, tkKeyword, "EXISTS") && is(i+1, tkOp, "("):
		return "a subquery"
	}
	return ""
}

// ParseAll parses a semicolon-separated script into statements.
func ParseAll(src string) ([]Stmt, error) {
	toks, err := lexSQL(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var out []Stmt
	for {
		for p.acceptOp(";") {
		}
		if p.atEOF() {
			return out, nil
		}
		st, err := p.parseStatement()
		if err != nil {
			return nil, p.errAt(err)
		}
		out = append(out, st)
		if !p.acceptOp(";") && !p.atEOF() {
			return nil, p.errAt(errSyntax("expected ';' between statements, got %s", p.peek().describe()))
		}
	}
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) atEOF() bool { return p.peek().kind == tkEOF }
func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tkEOF {
		p.pos++
	}
	return t
}

func (p *parser) acceptKw(kw string) bool {
	if t := p.peek(); t.kind == tkKeyword && t.text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return errSyntax("expected %s, got %s", kw, p.peek().describe())
	}
	return nil
}

func (p *parser) acceptOp(op string) bool {
	if t := p.peek(); t.kind == tkOp && t.text == op {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return errSyntax("expected %q, got %s", op, p.peek().describe())
	}
	return nil
}

// expectIdent consumes an identifier. Type keywords and a few non-reserved
// words are permitted as identifiers for 1996-schema friendliness
// (columns named "desc" appear in the paper's examples — those must be
// double-quoted; but "url", "title" are ordinary identifiers).
func (p *parser) expectIdent(what string) (string, error) {
	t := p.peek()
	if t.kind == tkIdent {
		p.pos++
		return t.text, nil
	}
	return "", errSyntax("expected %s, got %s", what, t.describe())
}

func (p *parser) parseStatement() (Stmt, error) {
	t := p.peek()
	if t.kind != tkKeyword {
		return nil, errSyntax("expected a SQL statement, got %s", t.describe())
	}
	switch t.text {
	case "SELECT":
		return p.parseSelect()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "EXPLAIN":
		return p.parseExplain()
	case "CREATE":
		return p.parseCreate()
	case "DROP":
		return p.parseDrop()
	case "BEGIN":
		p.advance()
		p.acceptKw("WORK")
		p.acceptKw("TRANSACTION")
		return &BeginStmt{}, nil
	case "COMMIT":
		p.advance()
		p.acceptKw("WORK")
		return &CommitStmt{}, nil
	case "ROLLBACK":
		p.advance()
		p.acceptKw("WORK")
		return &RollbackStmt{}, nil
	default:
		return nil, errSyntax("unsupported statement starting with %s", t.describe())
	}
}

// --- EXPLAIN ---

// parseExplain parses EXPLAIN [ANALYZE] <statement>. Only the four DML/query
// forms can be explained; utility statements have no plan.
func (p *parser) parseExplain() (Stmt, error) {
	if err := p.expectKw("EXPLAIN"); err != nil {
		return nil, err
	}
	x := &ExplainStmt{Analyze: p.acceptKw("ANALYZE")}
	switch t := p.peek(); t.text {
	case "SELECT", "INSERT", "UPDATE", "DELETE":
	default:
		return nil, errSyntax("EXPLAIN wants SELECT, INSERT, UPDATE, or DELETE, got %s", t.describe())
	}
	inner, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	x.Target = inner
	return x, nil
}

// --- SELECT ---

// parseSelect parses a SELECT: its list, FROM, WHERE, GROUP BY and ORDER
// BY.
func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	sel := &SelectStmt{}
	p.acceptKw("ALL")
	if err := p.parseSelectList(sel); err != nil {
		return nil, err
	}
	if p.acceptKw("FROM") {
		for {
			tr, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			sel.From = append(sel.From, tr)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = e
	}
	if p.acceptKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKw("DESC") {
				item.Desc = true
			} else {
				p.acceptKw("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	return sel, nil
}

func (p *parser) parseSelectList(sel *SelectStmt) error {
	if p.acceptOp("*") {
		sel.Star = true
		return nil
	}
	for {
		// alias.* form
		if p.peek().kind == tkIdent && p.pos+2 < len(p.toks) &&
			p.toks[p.pos+1].kind == tkOp && p.toks[p.pos+1].text == "." &&
			p.toks[p.pos+2].kind == tkOp && p.toks[p.pos+2].text == "*" {
			tbl := p.advance().text
			p.advance() // .
			p.advance() // *
			sel.Items = append(sel.Items, SelectItem{TableStar: tbl})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return err
			}
			item := SelectItem{Expr: e}
			if p.acceptKw("AS") {
				a, err := p.expectIdent("column alias")
				if err != nil {
					return err
				}
				item.Alias = a
			} else if p.peek().kind == tkIdent {
				item.Alias = p.advance().text
			}
			sel.Items = append(sel.Items, item)
		}
		if !p.acceptOp(",") {
			return nil
		}
	}
}

// parseTableAlias consumes an optional [AS] alias.
func (p *parser) parseTableAlias() (string, error) {
	if p.acceptKw("AS") {
		return p.expectIdent("table alias")
	}
	if p.peek().kind == tkIdent {
		return p.advance().text, nil
	}
	return "", nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	tr := TableRef{Off: p.peek().pos}
	name, err := p.expectIdent("table name")
	if err != nil {
		return TableRef{}, err
	}
	tr.Table = name
	if tr.Alias, err = p.parseTableAlias(); err != nil {
		return TableRef{}, err
	}
	for {
		var kind JoinKind
		switch {
		case p.acceptKw("JOIN"):
			kind = JoinInner
		case p.acceptKw("INNER"):
			if err := p.expectKw("JOIN"); err != nil {
				return TableRef{}, err
			}
			kind = JoinInner
		case p.acceptKw("LEFT"):
			p.acceptKw("OUTER")
			if err := p.expectKw("JOIN"); err != nil {
				return TableRef{}, err
			}
			kind = JoinLeft
		case p.acceptKw("CROSS"):
			if err := p.expectKw("JOIN"); err != nil {
				return TableRef{}, err
			}
			kind = JoinCross
		default:
			return tr, nil
		}
		jc := JoinClause{Kind: kind, Off: p.peek().pos}
		if jc.Table, err = p.expectIdent("joined table name"); err != nil {
			return TableRef{}, err
		}
		if jc.Alias, err = p.parseTableAlias(); err != nil {
			return TableRef{}, err
		}
		if kind != JoinCross {
			if err := p.expectKw("ON"); err != nil {
				return TableRef{}, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return TableRef{}, err
			}
			jc.On = on
		}
		tr.Joins = append(tr.Joins, jc)
	}
}

// --- INSERT / UPDATE / DELETE ---

func (p *parser) parseInsert() (*InsertStmt, error) {
	p.advance() // INSERT
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	tblOff := p.peek().pos
	name, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	ins := &InsertStmt{Table: name, TableOff: tblOff}
	if p.acceptOp("(") {
		for {
			colOff := p.peek().pos
			col, err := p.expectIdent("column name")
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, col)
			ins.ColumnOffs = append(ins.ColumnOffs, colOff)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.acceptOp(",") {
			break
		}
	}
	return ins, nil
}

func (p *parser) parseUpdate() (*UpdateStmt, error) {
	p.advance() // UPDATE
	tblOff := p.peek().pos
	name, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	up := &UpdateStmt{Table: name, TableOff: tblOff}
	if p.acceptKw("AS") {
		a, err := p.expectIdent("table alias")
		if err != nil {
			return nil, err
		}
		up.Alias = a
	} else if p.peek().kind == tkIdent {
		up.Alias = p.advance().text
	}
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	for {
		colOff := p.peek().pos
		col, err := p.expectIdent("column name")
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		up.Set = append(up.Set, SetClause{Column: col, Value: val, ColOff: colOff})
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		up.Where = e
	}
	return up, nil
}

func (p *parser) parseDelete() (*DeleteStmt, error) {
	p.advance() // DELETE
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	tblOff := p.peek().pos
	name, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	del := &DeleteStmt{Table: name, TableOff: tblOff}
	if p.acceptKw("AS") {
		a, err := p.expectIdent("table alias")
		if err != nil {
			return nil, err
		}
		del.Alias = a
	} else if p.peek().kind == tkIdent {
		del.Alias = p.advance().text
	}
	if p.acceptKw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		del.Where = e
	}
	return del, nil
}

// --- CREATE / DROP ---

func (p *parser) parseCreate() (Stmt, error) {
	p.advance() // CREATE
	unique := p.acceptKw("UNIQUE")
	switch {
	case !unique && p.acceptKw("TABLE"):
		return p.parseCreateTable()
	case p.acceptKw("INDEX"):
		return p.parseCreateIndex(unique)
	default:
		return nil, errSyntax("expected TABLE or INDEX after CREATE, got %s", p.peek().describe())
	}
}

func (p *parser) parseCreateTable() (*CreateTableStmt, error) {
	ct := &CreateTableStmt{}
	if p.acceptKw("IF") {
		if err := p.expectKw("NOT"); err != nil {
			return nil, err
		}
		if err := p.expectKw("EXISTS"); err != nil {
			return nil, err
		}
		ct.IfNotExists = true
	}
	name, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	ct.Table = name
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	for {
		col, err := p.parseColumnDef()
		if err != nil {
			return nil, err
		}
		ct.Columns = append(ct.Columns, col)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return ct, nil
}

func (p *parser) parseColumnDef() (ColumnDef, error) {
	name, err := p.expectIdent("column name")
	if err != nil {
		return ColumnDef{}, err
	}
	typ, err := p.parseTypeName()
	if err != nil {
		return ColumnDef{}, err
	}
	cd := ColumnDef{Name: name, Type: typ}
	for {
		switch {
		case p.acceptKw("NOT"):
			if err := p.expectKw("NULL"); err != nil {
				return ColumnDef{}, err
			}
			cd.NotNull = true
		case p.acceptKw("PRIMARY"):
			if err := p.expectKw("KEY"); err != nil {
				return ColumnDef{}, err
			}
			cd.PrimaryKey = true
			cd.NotNull = true
		case p.acceptKw("DEFAULT"):
			e, err := p.parsePrimary()
			if err != nil {
				return ColumnDef{}, err
			}
			cd.Default = e
		case p.acceptKw("NULL"):
			// explicit NULL-able, the default
		default:
			return cd, nil
		}
	}
}

// parseTypeName consumes a SQL type name and maps it onto a runtime Type.
func (p *parser) parseTypeName() (Type, error) {
	t := p.peek()
	if t.kind != tkKeyword {
		return TNull, errSyntax("expected a type name, got %s", t.describe())
	}
	p.advance()
	var typ Type
	switch t.text {
	case "INT", "INTEGER", "SMALLINT", "BIGINT":
		typ = TInt
	case "VARCHAR", "CHAR", "CHARACTER", "TEXT":
		typ = TString
	case "DOUBLE", "FLOAT", "REAL", "DECIMAL", "NUMERIC":
		typ = TFloat
		p.acceptKw("PRECISION") // DOUBLE PRECISION
	case "BOOLEAN":
		typ = TBool
	default:
		return TNull, errSyntax("unsupported type %s", t.describe())
	}
	// Optional (length) or (precision, scale) — accepted and ignored, the
	// engine stores unbounded values.
	if p.acceptOp("(") {
		for !p.acceptOp(")") {
			if p.atEOF() {
				return TNull, errSyntax("unterminated type parameter list")
			}
			p.advance()
		}
	}
	return typ, nil
}

func (p *parser) parseCreateIndex(unique bool) (*CreateIndexStmt, error) {
	nameOff := p.peek().pos
	name, err := p.expectIdent("index name")
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("ON"); err != nil {
		return nil, err
	}
	tblOff := p.peek().pos
	table, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	colOff := p.peek().pos
	col, err := p.expectIdent("column name")
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &CreateIndexStmt{Name: name, Table: table, Column: col, Unique: unique,
		NameOff: nameOff, TableOff: tblOff, ColumnOff: colOff}, nil
}

func (p *parser) parseDrop() (Stmt, error) {
	p.advance() // DROP
	switch {
	case p.acceptKw("TABLE"):
		dt := &DropTableStmt{}
		if p.acceptKw("IF") {
			if err := p.expectKw("EXISTS"); err != nil {
				return nil, err
			}
			dt.IfExists = true
		}
		dt.TableOff = p.peek().pos
		name, err := p.expectIdent("table name")
		if err != nil {
			return nil, err
		}
		dt.Table = name
		return dt, nil
	case p.acceptKw("INDEX"):
		di := &DropIndexStmt{}
		if p.acceptKw("IF") {
			if err := p.expectKw("EXISTS"); err != nil {
				return nil, err
			}
			di.IfExists = true
		}
		di.NameOff = p.peek().pos
		name, err := p.expectIdent("index name")
		if err != nil {
			return nil, err
		}
		di.Name = name
		return di, nil
	default:
		return nil, errSyntax("expected TABLE or INDEX after DROP, got %s", p.peek().describe())
	}
}

// --- Expressions (precedence climbing) ---

func (p *parser) parseExpr() (Expr, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	e, err := p.parseOr()
	p.depth--
	return e, err
}

func (p *parser) parseOr() (Expr, error) { return p.chain(p.parseAnd, "OR") }

func (p *parser) parseAnd() (Expr, error) { return p.chain(p.parseNot, "AND") }

// chain parses a left-associative chain of next's operands joined by ops,
// keywords or operators; each operator after the first operand nests one
// level deeper.
func (p *parser) chain(next func() (Expr, error), ops ...string) (Expr, error) {
	d := p.depth
	l, err := next()
	for err == nil {
		op := ""
		for _, o := range ops {
			if t := p.peek(); (t.kind == tkKeyword || t.kind == tkOp) && t.text == o {
				op = o
			}
		}
		if op == "" {
			p.depth = d
			return l, nil
		}
		p.advance()
		var r Expr
		if err = p.nest(); err == nil {
			if r, err = next(); err == nil {
				l = &Binary{Op: op, L: l, R: r}
			}
		}
	}
	return nil, err
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKw("NOT") {
		if err := p.nest(); err != nil {
			return nil, err
		}
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		p.depth--
		return &Unary{Op: "NOT", X: x}, nil
	}
	return p.parsePredicate()
}

// parsePredicate handles comparison and the SQL predicates (LIKE, IN,
// IS NULL) at the same precedence level.
func (p *parser) parsePredicate() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.acceptKw("IS") {
		not := p.acceptKw("NOT")
		if err := p.expectKw("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{Not: not, X: l}, nil
	}
	not := false
	if p.peek().kind == tkKeyword && p.peek().text == "NOT" &&
		p.pos+1 < len(p.toks) && p.toks[p.pos+1].kind == tkKeyword {
		switch p.toks[p.pos+1].text {
		case "LIKE", "IN", "BETWEEN": // NOT BETWEEN is refused at BETWEEN
			p.advance()
			not = true
		}
	}
	switch {
	case p.acceptKw("LIKE"):
		pat, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &LikeExpr{Not: not, X: l, Pattern: pat}, nil
	case p.acceptKw("IN"):
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		in := &InExpr{Not: not, X: l}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			in.List = append(in.List, e)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return in, nil
	}
	if not {
		return nil, errSyntax("expected LIKE or IN after NOT")
	}
	// comparison operators
	for _, op := range []string{"=", "<>", "!=", "<=", ">=", "<", ">"} {
		if p.acceptOp(op) {
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			canon := op
			if canon == "!=" {
				canon = "<>"
			}
			return &Binary{Op: canon, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	return p.chain(p.parseMultiplicative, "+", "-")
}

func (p *parser) parseMultiplicative() (Expr, error) { return p.chain(p.parseUnary, "*", "/", "%") }

func (p *parser) parseUnary() (Expr, error) {
	minus := p.acceptOp("-")
	if !minus && !p.acceptOp("+") {
		return p.parsePrimary()
	}
	if err := p.nest(); err != nil {
		return nil, err
	}
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	p.depth--
	if minus {
		return &Unary{Op: "-", X: x}, nil
	}
	return x, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tkNumber:
		p.advance()
		return &Literal{Val: t.num, Off: t.pos}, nil
	case tkString:
		p.advance()
		return &Literal{Val: NewString(t.text), Off: t.pos}, nil
	case tkParam:
		p.advance()
		p.nprm++
		return &Param{Index: p.nprm, Off: t.pos}, nil
	case tkKeyword:
		switch t.text {
		case "NULL":
			p.advance()
			return &Literal{Val: Null, Off: t.pos}, nil
		case "TRUE":
			p.advance()
			return &Literal{Val: NewBool(true), Off: t.pos}, nil
		case "FALSE":
			p.advance()
			return &Literal{Val: NewBool(false), Off: t.pos}, nil
		case "CASE":
			return p.parseCase()
		default:
			return nil, errSyntax("unexpected %s in expression", t.describe())
		}
	case tkIdent:
		return p.parseIdentExpr()
	case tkOp:
		if t.text == "(" {
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		if t.text == "*" {
			// bare * only valid inside COUNT(*), handled in parseIdentExpr
			return nil, errSyntax("unexpected '*' in expression")
		}
	}
	return nil, errSyntax("unexpected %s in expression", t.describe())
}

// parseIdentExpr handles column references (possibly qualified) and
// function calls.
func (p *parser) parseIdentExpr() (Expr, error) {
	nameTok := p.advance()
	name := nameTok.text
	// function call?
	if p.acceptOp("(") {
		fc := &FuncCall{Name: strings.ToUpper(name), Off: nameTok.pos}
		if p.acceptOp("*") {
			fc.Star = true
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return fc, nil
		}
		if p.acceptOp(")") {
			return fc, nil
		}
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fc.Args = append(fc.Args, a)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return fc, nil
	}
	// qualified column?
	if p.acceptOp(".") {
		col, err := p.expectIdent("column name")
		if err != nil {
			return nil, err
		}
		return &ColumnRef{Table: name, Column: col, Off: nameTok.pos}, nil
	}
	return &ColumnRef{Column: name, Off: nameTok.pos}, nil
}

func (p *parser) parseCase() (Expr, error) {
	p.advance() // CASE
	ce := &CaseExpr{}
	if !(p.peek().kind == tkKeyword && p.peek().text == "WHEN") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Operand = op
	}
	for p.acceptKw("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, CaseWhen{Cond: cond, Then: then})
	}
	if len(ce.Whens) == 0 {
		return nil, errSyntax("CASE requires at least one WHEN arm")
	}
	if p.acceptKw("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Else = e
	}
	if err := p.expectKw("END"); err != nil {
		return nil, err
	}
	return ce, nil
}
