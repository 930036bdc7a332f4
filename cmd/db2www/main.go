// Command db2www is the CGI executable of the paper's Figure 4: a Web
// server invokes it per request with the CGI environment-variable
// contract (PATH_INFO = /{macro-file}/{cmd}, QUERY_STRING or stdin for
// inputs), and it writes a CGI response — headers, blank line, HTML — to
// standard output.
//
// Configuration comes from the environment the server's cgi-bin setup
// provides:
//
//	DB2WWW_MACRO_DIR   macro root directory (default ".")
//	DB2WWW_DATABASE    name for the in-memory database (default CELDIAL)
//	DB2WWW_DATASET     dataset spec loaded at startup (see workload.Load),
//	                   standing in for the long-lived DBMS server the
//	                   paper's deployments connected to (default urldb)
//	DB2WWW_TXN         "auto" (default) or "single"
//	DB2WWW_MAXROWS     default row cap for reports (default 0 = unlimited)
//
// The paper also describes the server passing {macro-file} and {cmd} as
// two program parameters; when arguments are given they take precedence
// over PATH_INFO.
package main

import (
	"fmt"
	"html"
	"io"
	"os"
	"strconv"

	"db2www/internal/cgi"
	"db2www/internal/core"
	"db2www/internal/gateway"
	"db2www/internal/obs"
	"db2www/internal/sqldb"
	"db2www/internal/sqldriver"
	"db2www/internal/workload"
)

func main() {
	// The CGI calling convention reserves positional arguments for
	// {macro-file} and {cmd}, so -version is matched literally.
	if len(os.Args) == 2 && (os.Args[1] == "-version" || os.Args[1] == "--version") {
		fmt.Println(obs.VersionLine("db2www"))
		return
	}
	if err := run(); err != nil {
		// A CGI program must still emit a valid response on failure, and
		// one the server counts as a failure.
		fmt.Print("Status: 500\n", cgi.WriteHeader("text/html"))
		fmt.Printf("<HTML><TITLE>Server Error</TITLE><BODY><H1>Server Error</H1><P>%s</P></BODY></HTML>\n",
			html.EscapeString(err.Error()))
		os.Exit(0)
	}
}

func run() error {
	dbName := envDefault("DB2WWW_DATABASE", "CELDIAL")
	dataset := envDefault("DB2WWW_DATASET", "urldb")
	db := sqldb.NewDatabase(dbName)
	if err := workload.Load(db, dataset); err != nil {
		return err
	}
	sqldriver.Register(dbName, db)

	engine := &core.Engine{DB: gateway.NewSQLProvider()}
	if os.Getenv("DB2WWW_TXN") == "single" {
		engine.Txn = core.TxnSingle
	}
	if v := os.Getenv("DB2WWW_MAXROWS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("bad DB2WWW_MAXROWS %q", v)
		}
		engine.MaxRows = n
	}
	app := &gateway.App{
		MacroDir: envDefault("DB2WWW_MACRO_DIR", "."),
		Engine:   engine,
	}

	var body string
	if os.Getenv("REQUEST_METHOD") == "POST" {
		b, err := io.ReadAll(os.Stdin)
		if err != nil {
			return fmt.Errorf("reading POST body: %w", err)
		}
		body = string(b)
	}
	req := cgi.RequestFromEnv(os.Getenv, body)
	// Positional parameters override PATH_INFO (Section 4's calling
	// convention: the server passes {macro-file} and {cmd}).
	if len(os.Args) == 3 {
		req.PathInfo = "/" + os.Args[1] + "/" + os.Args[2]
	}
	resp, err := app.ServeCGI(req)
	if err != nil {
		return err
	}
	out := os.Stdout
	if resp.Status != 200 {
		fmt.Fprintf(out, "Status: %d\n", resp.Status)
	}
	fmt.Fprint(out, cgi.WriteHeader(resp.ContentType))
	_, err = resp.Body.WriteTo(out)
	return err
}

func envDefault(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}
