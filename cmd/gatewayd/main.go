// Command gatewayd is the Web server of the paper's Figure 1: it serves
// an organisation's static pages and routes /cgi-bin/db2www URLs to the
// DB2WWW application — in-process by default, or by forking a real CGI
// subprocess per request with -cgi (the faithful 1996 process model).
//
//	gatewayd -addr :8080 -macros ./macros -dataset urldb:500:1
//	gatewayd -addr :8080 -macros ./macros -cgi ./db2www
//
// This file is the command line and the listener; gateway.NewServer
// assembles what is served, and Server.HTTPServer the listener's bounds.
package main

import (
	"flag"
	"fmt"
	"log"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"

	"db2www/internal/gateway"
	"db2www/internal/obs"
)

func main() {
	cfg := gateway.DefaultServerConfig()
	flag.StringVar(&cfg.Addr, "addr", cfg.Addr, "listen address")
	flag.StringVar(&cfg.Macros, "macros", cfg.Macros, "macro root directory")
	flag.StringVar(&cfg.DocRoot, "docroot", cfg.DocRoot, "static document root (optional)")
	flag.StringVar(&cfg.Database, "database", cfg.Database, "in-memory database name")
	flag.StringVar(&cfg.Dataset, "dataset", cfg.Dataset, "dataset spec (see workload.Load)")
	flag.StringVar(&cfg.Txn, "txn", cfg.Txn, "transaction mode: auto or single")
	flag.IntVar(&cfg.MaxRows, "maxrows", cfg.MaxRows, "default report row cap (0 = unlimited)")
	flag.StringVar(&cfg.CGI, "cgi", cfg.CGI, "path to a db2www CGI executable; enables subprocess mode")
	flag.StringVar(&cfg.Lint, "lint", cfg.Lint, "macro lint: off, warn (preflight + log findings), or strict (refuse to start or serve on lint errors)")
	flag.StringVar(&cfg.Auth, "auth", cfg.Auth, "user:password for HTTP basic auth (optional)")
	flag.StringVar(&cfg.Load, "load", cfg.Load, "restore a database dump instead of generating -dataset")
	flag.StringVar(&cfg.Save, "save", cfg.Save, "dump the database to this file on SIGINT/SIGTERM")
	flag.StringVar(&cfg.AccessLog, "accesslog", cfg.AccessLog, "write access log lines to this file")
	flag.StringVar(&cfg.AccessLogFormat, "access-log-format", cfg.AccessLogFormat, "access log line format: clf (NCSA Common Log Format) or json (one object per line with trace/flight/digest/latency fields)")
	flag.Int64Var(&cfg.QCacheBytes, "qcache-bytes", cfg.QCacheBytes, "byte budget of the %EXEC_SQL query-result cache (invalidated exactly, by table version; see docs/CACHING.md); 0 = no cache")
	flag.StringVar(&cfg.FlightDir, "flight-dir", cfg.FlightDir, "persist kept flight records (rotating JSONL) and anomaly pprof snapshots here")
	flag.Float64Var(&cfg.FlightSample, "flight-sample", cfg.FlightSample, "keep probability for healthy requests (errors and slow requests are always kept)")
	flag.DurationVar(&cfg.SlowThreshold, "slow-threshold", cfg.SlowThreshold, "a request slower than this is slow: the flight recorder keeps its record (kept:slow)")
	version := flag.Bool("version", false, "print build information and exit")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty disables)")
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionLine("gatewayd"))
		return
	}

	srv, err := gateway.NewServer(cfg)
	if err != nil {
		log.Fatalf("gatewayd: %v", err)
	}
	srv.WriteBanner(os.Stdout)

	if cfg.Save != "" {
		// Dump on SIGINT or SIGTERM, then exit — a poor man's durability
		// story for a demo server (the paper's deployments delegated
		// durability to DB2).
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		go func() {
			sig := <-ch
			fmt.Printf("\ngatewayd: %v — dumping database to %s\n", sig, cfg.Save)
			if err := srv.DB.DumpToFile(cfg.Save); err != nil {
				log.Printf("gatewayd: dump failed: %v", err)
				os.Exit(1)
			}
			os.Exit(0)
		}()
	}
	if *pprofAddr != "" {
		// The pprof import registers on http.DefaultServeMux, which the
		// main listener never serves — profiling stays on its own address.
		go func() {
			log.Printf("gatewayd: pprof at http://%s/debug/pprof/", *pprofAddr)
			log.Fatal(srv.HTTPServer(*pprofAddr, nil).ListenAndServe())
		}()
	}
	log.Fatal(srv.HTTPServer(cfg.Addr, srv.Handler()).ListenAndServe())
}
