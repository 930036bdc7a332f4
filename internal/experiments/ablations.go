package experiments

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"time"

	"db2www/internal/cgi"
	"db2www/internal/core"
	"db2www/internal/gateway"
	"db2www/internal/sqldb"
	"db2www/internal/sqldriver"
	"db2www/internal/workload"
)

// A1 quantifies lazy evaluation (Section 4.3.1): a macro defines N
// variables — chained so each evaluation does real work — and the page
// references only k of them. Lazy substitution pays for k; an eager
// evaluator (the design the paper rejected) would pay for N on every
// request, shown by the k=N row.
func A1(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	section(w, "A1 — lazy vs eager variable evaluation")
	fmt.Fprintf(w, "%8s %8s %14s\n", "defined", "used", "per request")
	const n = 1000
	var defs strings.Builder
	defs.WriteString("%define{\n")
	fmt.Fprintf(&defs, "v0 = \"x\"\n")
	for i := 1; i < n; i++ {
		// Each variable references its predecessor, so evaluating vK
		// costs K dereferences.
		fmt.Fprintf(&defs, "v%d = \"$(v%d).\"\n", i, i-1)
	}
	defs.WriteString("%}\n")
	for _, k := range []int{1, 10, 100, n} {
		var refs strings.Builder
		// Reference k variables spread over the chain (each shallow, so
		// the work scales with k, not with chain depth).
		step := n / k
		for i := 0; i < k; i++ {
			fmt.Fprintf(&refs, "$(v%d)", (i*step)%32) // shallow chain positions
		}
		src := defs.String() + "%HTML_INPUT{" + refs.String() + "%}"
		m, err := core.Parse("a1.d2w", src)
		if err != nil {
			return err
		}
		e := &core.Engine{}
		iters := cfg.Requests
		start := time.Now()
		for i := 0; i < iters; i++ {
			var buf bytes.Buffer
			if err := e.Run(m, core.ModeInput, nil, &buf); err != nil {
				return err
			}
		}
		per := time.Since(start) / time.Duration(iters)
		fmt.Fprintf(w, "%8d %8d %14s\n", n, k, per.Round(time.Nanosecond))
	}
	fmt.Fprintln(w, "(k = used variables; an eager evaluator always pays the k=1000 row)")
	return nil
}

// A2 measures the parsed-macro cache: the faithful CGI model re-reads
// and re-parses the macro per request; a resident gateway can cache it.
func A2(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	section(w, "A2 — macro re-parse per request vs cached parse")
	fmt.Fprintf(w, "%10s %14s\n", "cache", "per request")
	req := &cgi.Request{Method: "GET", PathInfo: "/urlquery.d2w/input"}
	for _, cache := range []bool{false, true} {
		st, err := NewStack(StackConfig{Rows: 50, Seed: cfg.Seed, CacheMacros: cache})
		if err != nil {
			return err
		}
		start := time.Now()
		for i := 0; i < cfg.Requests; i++ {
			resp, err := st.App.ServeCGI(req)
			if err != nil || resp.Status != 200 {
				st.Close()
				return fmt.Errorf("A2: status %d err %v", resp.Status, err)
			}
		}
		per := time.Since(start) / time.Duration(cfg.Requests)
		st.Close()
		label := "off"
		if cache {
			label = "on"
		}
		fmt.Fprintf(w, "%10s %14s\n", label, per.Round(time.Microsecond))
	}
	return nil
}

// A3 compares the default table format against a custom %SQL_REPORT
// block across result sizes.
func A3(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	section(w, "A3 — default report format vs custom %SQL_REPORT block")
	fmt.Fprintf(w, "%8s %16s %16s\n", "rows", "default table", "custom %ROW")
	styles := Restyles()
	for _, rows := range []int{10, 100, 1000} {
		times := map[string]time.Duration{}
		for _, name := range []string{"default-table", "bullet-list"} {
			func() {
				db := sqldb.NewDatabase("RESTYLE")
				if err := workload.URLDB(db, rows, cfg.Seed); err != nil {
					panic(err)
				}
				sqldriver.Register("RESTYLE", db)
				defer sqldriver.Unregister("RESTYLE")
				m, err := core.Parse(name, styles[name])
				if err != nil {
					panic(err)
				}
				eng := &core.Engine{DB: gateway.NewSQLProvider()}
				iters := cfg.Requests / 10
				if iters == 0 {
					iters = 1
				}
				start := time.Now()
				for i := 0; i < iters; i++ {
					var buf bytes.Buffer
					if err := eng.Run(m, core.ModeReport, nil, &buf); err != nil {
						panic(err)
					}
				}
				times[name] = time.Since(start) / time.Duration(iters)
			}()
		}
		fmt.Fprintf(w, "%8d %16s %16s\n", rows,
			times["default-table"].Round(time.Microsecond),
			times["bullet-list"].Round(time.Microsecond))
	}
	return nil
}

// A5 measures the sqldb access-path choice under the macro workload's
// characteristic predicates: primary-key equality and LIKE-prefix.
func A5(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	rows := cfg.Rows * 20
	db := sqldb.NewDatabase("A5")
	if err := workload.URLDB(db, rows, cfg.Seed); err != nil {
		return err
	}
	if err := workload.URLDBHeap(db); err != nil {
		return err
	}
	s := sqldb.NewSession(db)
	defer s.Close()
	res, err := s.Exec("SELECT url FROM urldb ORDER BY url LIMIT 1 OFFSET ?", sqldb.NewInt(int64(rows/2)))
	if err != nil {
		return err
	}
	target := res.Rows[0][0].S
	prefix := target[:14] // "http://www.xxx"

	section(w, "A5 — index scan vs full scan (sqldb access paths)")
	fmt.Fprintf(w, "table: urldb with %d rows, and the same rows without the key (urldb_heap); predicates on url\n", rows)
	fmt.Fprintf(w, "%-22s %14s %14s %10s\n", "predicate", "index scan", "full scan", "speedup")
	type q struct {
		label string
		sql   string
		arg   sqldb.Value
	}
	queries := []q{
		{"url = <key>", "SELECT title FROM %s WHERE url = ?", sqldb.NewString(target)},
		{"url LIKE '<prefix>%'", "SELECT title FROM %s WHERE url LIKE ?", sqldb.NewString(prefix + "%")},
	}
	iters := cfg.Requests
	for _, query := range queries {
		var with, without time.Duration
		for _, table := range []string{"urldb", "urldb_heap"} {
			sql := fmt.Sprintf(query.sql, table)
			start := time.Now()
			for i := 0; i < iters; i++ {
				if _, err := s.Exec(sql, query.arg); err != nil {
					return err
				}
			}
			d := time.Since(start) / time.Duration(iters)
			if table == "urldb" {
				with = d
			} else {
				without = d
			}
		}
		fmt.Fprintf(w, "%-22s %14s %14s %9.1fx\n", query.label,
			with.Round(time.Microsecond), without.Round(time.Microsecond),
			float64(without)/float64(with))
	}
	return nil
}
