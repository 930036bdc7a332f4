// Command sqlsh is an interactive shell for the embedded sqldb engine —
// the "visual query tool" slot of the paper's Figure 5 development
// workflow, reduced to a terminal. Statements end with ';'. Meta
// commands: \d lists tables, \d NAME describes one (columns, indexes,
// row count), \check DIR lints a macro directory against the live
// catalog (schema-aware analyzers included), \planstats dumps the
// counters of the plan cache — a cache of parses: no plan is kept, each
// execution plans afresh — \q quits. EXPLAIN [ANALYZE] <stmt> renders the
// execution plan — with the cost-based planner on, plan nodes carry "Est:
// ~rows (cost=...)" estimates, and a footer reports whether the
// statement's shape has a parse in the plan cache (see docs/STATEMENTS.md
// and docs/PLANNER.md).
//
//	sqlsh -dataset urldb:100:1
//	sqlsh -e "SELECT COUNT(*) FROM urldb"
//	sqlsh -dataset urldb:100:1 -e "EXPLAIN ANALYZE SELECT * FROM urldb WHERE url LIKE 'http://a%'"
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"db2www/internal/macrolint"
	"db2www/internal/sqldb"
	"db2www/internal/sqlsema"
	"db2www/internal/workload"
)

func main() {
	var (
		dataset = flag.String("dataset", "", "dataset spec to preload (see workload.Load)")
		execSQL = flag.String("e", "", "execute this SQL and exit")
		script  = flag.String("file", "", "execute statements from a file and exit")
		load    = flag.String("load", "", "restore a database dump before starting")
		dump    = flag.String("dump", "", "write a database dump on exit")
	)
	flag.Parse()

	db := sqldb.NewDatabase("SHELL")
	if *dataset != "" {
		if err := workload.Load(db, *dataset); err != nil {
			fmt.Fprintf(os.Stderr, "sqlsh: %v\n", err)
			os.Exit(1)
		}
	}
	if *load != "" {
		if err := sqldb.RestoreFromFile(db, *load); err != nil {
			fmt.Fprintf(os.Stderr, "sqlsh: restoring %s: %v\n", *load, err)
			os.Exit(1)
		}
	}
	if *dump != "" {
		defer func() {
			if err := db.DumpToFile(*dump); err != nil {
				fmt.Fprintf(os.Stderr, "sqlsh: dumping to %s: %v\n", *dump, err)
			}
		}()
	}
	sess := sqldb.NewSession(db)
	defer sess.Close()

	if *execSQL != "" {
		if !runStatement(db, sess, *execSQL) {
			os.Exit(1)
		}
		return
	}
	if *script != "" {
		src, err := os.ReadFile(*script)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sqlsh: %v\n", err)
			os.Exit(1)
		}
		stmts, err := sqldb.ParseAll(string(src))
		if err != nil {
			fmt.Fprintf(os.Stderr, "sqlsh: %v\n", err)
			os.Exit(1)
		}
		for _, st := range stmts {
			res, err := sess.ExecStmt(st)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sqlsh: %v\n", err)
				os.Exit(1)
			}
			printResult(res)
		}
		return
	}

	fmt.Println("sqlsh — embedded SQL shell. Statements end with ';'. \\q quits, \\d lists tables, \\check DIR lints macros against the catalog, \\planstats dumps parse-cache counters, EXPLAIN [ANALYZE] shows plans.")
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("sql> ")
		} else {
			fmt.Print("...> ")
		}
	}
	prompt()
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if !metaCommand(db, trimmed) {
				return
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.HasSuffix(trimmed, ";") {
			stmt := buf.String()
			buf.Reset()
			runStatement(db, sess, stmt)
		}
		prompt()
	}
}

// metaCommand handles backslash commands; returns false to quit.
func metaCommand(db *sqldb.Database, cmd string) bool {
	switch {
	case cmd == "\\q":
		return false
	case cmd == "\\d":
		for _, name := range db.TableNames() {
			fmt.Println(name)
		}
	case cmd == "\\planstats":
		st := db.PlanCacheStats()
		fmt.Printf("%-16s %d / %d\n", "cached shapes:", st.Size, st.Cap)
		fmt.Printf("%-16s %d\n", "hits:", st.Hits)
		fmt.Printf("%-16s %d\n", "misses:", st.Misses)
		fmt.Printf("%-16s %d\n", "bypasses:", st.Bypasses)
	case strings.HasPrefix(cmd, "\\d "):
		name := strings.TrimSpace(cmd[3:])
		t, err := db.Table(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			return true
		}
		for _, c := range t.Columns {
			attrs := ""
			if c.NotNull {
				attrs += " NOT NULL"
			}
			if c.PrimaryKey {
				attrs += " PRIMARY KEY"
			}
			fmt.Printf("%-24s %s%s\n", c.Name, c.Type, attrs)
		}
		for _, st := range db.SchemaSnapshot() {
			if !strings.EqualFold(st.Name, name) {
				continue
			}
			for _, ix := range st.Indexes {
				kind := "index"
				if ix.Unique {
					kind = "unique index"
				}
				fmt.Printf("%-24s %s on (%s), %d distinct key(s)\n", ix.Name, kind, ix.Column, ix.Distinct)
			}
		}
		fmt.Printf("(%d rows)\n", t.RowCount())
	case strings.HasPrefix(cmd, "\\check "):
		dir := strings.TrimSpace(cmd[len("\\check "):])
		linter := macrolint.New()
		linter.Schema = sqlsema.FromDatabase(db)
		files, diags, err := linter.LintDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			return true
		}
		if err := macrolint.WriteText(os.Stdout, diags); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			return true
		}
		errs, warns, infos := macrolint.Counts(diags)
		fmt.Printf("%d macro(s): %d error(s), %d warning(s), %d info\n", len(files), errs, warns, infos)
	default:
		fmt.Fprintf(os.Stderr, "unknown meta command %q\n", cmd)
	}
	return true
}

func runStatement(db *sqldb.Database, sess *sqldb.Session, stmt string) bool {
	res, err := sess.Exec(stmt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		return false
	}
	printResult(res)
	if sqldb.HeadKeyword(stmt) == "EXPLAIN" {
		digest, cached := db.PlanCached(stmt)
		state := "miss — not in plan cache"
		if cached {
			state = "hit — shape is in the plan cache"
		}
		fmt.Printf("plan cache: %s (digest=%s)\n", state, digest)
	}
	return true
}

// printResult renders a result as an aligned text table.
func printResult(res *sqldb.Result) {
	if len(res.Columns) == 0 {
		fmt.Printf("%d row(s) affected\n", res.RowsAffected)
		return
	}
	widths := make([]int, len(res.Columns))
	for i, c := range res.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(res.Rows))
	for r, row := range res.Rows {
		cells[r] = make([]string, len(row))
		for i, v := range row {
			s := v.String()
			if v.IsNull() {
				s = "NULL"
			}
			cells[r][i] = s
			if len(s) > widths[i] {
				widths[i] = len(s)
			}
		}
	}
	sep := make([]string, len(widths))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	printRow := func(vals []string) {
		parts := make([]string, len(vals))
		for i, v := range vals {
			parts[i] = fmt.Sprintf("%-*s", widths[i], v)
		}
		fmt.Println(strings.Join(parts, " | "))
	}
	printRow(res.Columns)
	printRow(sep)
	for _, row := range cells {
		printRow(row)
	}
	fmt.Printf("(%d rows)\n", len(res.Rows))
}
