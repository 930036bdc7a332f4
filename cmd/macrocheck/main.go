// Command macrocheck is the developer-tooling half of the paper's
// Figure 5 workflow: it lints macro files with the macrolint analyzers
// and extracts their HTML and SQL sections so external editors and query
// tools can operate on them.
//
//	macrocheck app.d2w ...                 lint, human-readable output
//	macrocheck -strict app.d2w ...         exit 1 on error-severity findings
//	macrocheck -format json app.d2w        machine-readable findings
//	macrocheck -format sarif dir/          SARIF 2.1.0 for CI code scanning
//	macrocheck -schema schema.sql app.d2w  schema-aware analysis (schema, sqltype, sqlperf)
//	macrocheck -enable taint,cycle app.d2w run only the named analyzers
//	macrocheck -disable unused app.d2w     run all but the named analyzers
//	macrocheck -analyzers                  print the analyzer catalog
//	macrocheck -extract html app.d2w       print HTML sections
//	macrocheck -extract sql app.d2w        print SQL commands
//	macrocheck -vars app.d2w               list variables defined/referenced
//
// Arguments may be macro files or directories (linted recursively over
// *.d2w, with %INCLUDE targets resolved inside the directory).
//
// Exit status: 0 on success (findings of any severity are not failures
// unless -strict), 1 when -strict and at least one error-severity
// finding (parse failures included) was reported, 2 on usage or I/O
// errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"db2www/internal/core"
	"db2www/internal/macrolint"
	"db2www/internal/sqlsema"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		extract   = flag.String("extract", "", "extract sections: html or sql")
		vars      = flag.Bool("vars", false, "list defined and referenced variables")
		strict    = flag.Bool("strict", false, "exit 1 when any error-severity finding is reported")
		format    = flag.String("format", "text", "output format: text, json, or sarif")
		enable    = flag.String("enable", "", "comma-separated analyzers to run (default: all)")
		disable   = flag.String("disable", "", "comma-separated analyzers to skip")
		schemaSQL = flag.String("schema", "", "DDL file describing the database, executed on a scratch engine; enables the schema-aware analyzers")
		analyzers = flag.Bool("analyzers", false, "print the analyzer catalog and exit")
	)
	flag.Parse()

	if *analyzers {
		for _, a := range macrolint.Analyzers() {
			fmt.Printf("%-10s %s\n", a.ID, a.Doc)
		}
		return 0
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: macrocheck [-strict] [-format text|json|sarif] [-schema schema.sql] [-enable ids] [-disable ids] [-extract html|sql] [-vars] macro.d2w|dir ...")
		return 2
	}

	if *extract != "" || *vars {
		return runExtract(flag.Args(), *extract, *vars)
	}

	switch *format {
	case "text", "json", "sarif":
	default:
		fmt.Fprintf(os.Stderr, "macrocheck: -format wants text, json, or sarif, got %q\n", *format)
		return 2
	}
	linter := macrolint.New()
	if err := linter.Configure(*enable, *disable); err != nil {
		fmt.Fprintf(os.Stderr, "macrocheck: %v\n", err)
		return 2
	}
	if *schemaSQL != "" {
		ddl, err := os.ReadFile(*schemaSQL)
		if err != nil {
			fmt.Fprintf(os.Stderr, "macrocheck: %v\n", err)
			return 2
		}
		schema, err := sqlsema.FromDDL(string(ddl))
		if err != nil {
			fmt.Fprintf(os.Stderr, "macrocheck: -schema %s: %v\n", *schemaSQL, err)
			return 2
		}
		linter.Schema = schema
	}

	var diags []macrolint.Diagnostic
	ioFailed := false
	for _, path := range flag.Args() {
		info, err := os.Stat(path)
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "macrocheck: %v\n", err)
			ioFailed = true
		case info.IsDir():
			_, ds, err := linter.LintDir(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "macrocheck: %v\n", err)
				ioFailed = true
				continue
			}
			diags = append(diags, ds...)
		default:
			ds, err := linter.LintFile(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "macrocheck: %v\n", err)
				ioFailed = true
				continue
			}
			diags = append(diags, ds...)
		}
	}

	var werr error
	switch *format {
	case "json":
		werr = macrolint.WriteJSON(os.Stdout, diags)
	case "sarif":
		werr = macrolint.WriteSARIF(os.Stdout, diags)
	default:
		werr = macrolint.WriteText(os.Stdout, diags)
		errs, warns, infos := macrolint.Counts(diags)
		fmt.Printf("%d error(s), %d warning(s), %d info\n", errs, warns, infos)
	}
	if werr != nil {
		fmt.Fprintf(os.Stderr, "macrocheck: %v\n", werr)
		return 2
	}
	if ioFailed {
		return 2
	}
	if *strict && macrolint.HasErrors(diags) {
		return 1
	}
	return 0
}

func runExtract(paths []string, extract string, vars bool) int {
	failed := false
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "macrocheck: %v\n", err)
			failed = true
			continue
		}
		m, err := core.Parse(path, string(src))
		if err != nil {
			fmt.Fprintf(os.Stderr, "macrocheck: %v\n", err)
			failed = true
			continue
		}
		if extract != "" {
			if !extractSections(m, extract) {
				return 2
			}
		} else if vars {
			listVars(m)
		}
	}
	if failed {
		return 2
	}
	return 0
}

func extractSections(m *core.Macro, what string) bool {
	switch what {
	case "html":
		for _, sec := range m.Sections {
			if h, ok := sec.(*core.HTMLSection); ok {
				kind := "HTML_INPUT"
				if h.Report {
					kind = "HTML_REPORT"
				}
				fmt.Printf("-- %%%s (line %d)\n", kind, h.Line)
				for _, it := range h.Items {
					if it.ExecSQL {
						fmt.Printf("[%%EXEC_SQL(%s)]\n", it.SQLName)
					} else {
						fmt.Print(it.Text)
					}
				}
				fmt.Println()
			}
		}
	case "sql":
		for _, q := range m.SQLSections() {
			name := q.SectName
			if name == "" {
				name = "(unnamed)"
			}
			fmt.Printf("-- %%SQL %s (line %d)\n%s\n", name, q.Line, q.Command)
		}
	default:
		fmt.Fprintf(os.Stderr, "macrocheck: -extract wants html or sql, got %q\n", what)
		return false
	}
	return true
}

func listVars(m *core.Macro) {
	defined, referenced := core.Variables(m)
	fmt.Println("defined:")
	printSorted(defined)
	fmt.Println("referenced:")
	printSorted(referenced)
}

func printSorted(set map[string]bool) {
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Println("  " + strings.TrimSpace(n))
	}
}
