#!/usr/bin/env bash
# The caller census: which statements and functions of sqldb, core, qcache,
# gateway, flight and obs do the system's own callers reach, against all
# tests? The system's callers are the root tests (the golden corpus) and
# internal/experiments (the paper's figures), the four cmd/ binaries built
# with -cover and driven through their documented uses, and the examples.
#
#	bash scripts/census.sh [DIR]
#
# DIR (default: a new temporary directory) receives the counters (sys/ for
# the system's callers, all/ for every test), the binaries and the census
# itself. Prints, per package, the share of statements the system's callers
# reach and the share every test and caller reaches; then each function only
# unit tests reach (file:line, function, its share by all tests), and their
# count. EXPERIMENTS.md, "The caller census", sorts that list.
set -euo pipefail
cd "$(dirname "$0")/.."
out=${1:-$(mktemp -d)}
mkdir -p "$out"
out=$(cd "$out" && pwd)
sys=$out/sys all=$out/all bin=$out/bin
rm -rf "$sys" "$all" "$bin"
mkdir -p "$sys" "$all" "$bin"
pkgs=db2www/internal/sqldb,db2www/internal/core,db2www/internal/qcache,db2www/internal/gateway,db2www/internal/flight,db2www/internal/obs
port=${CENSUS_PORT:-18093}

# 1. The root and experiments tests.
go test -count=1 -cover -coverpkg="$pkgs" . ./internal/experiments -args -test.gocoverdir="$sys" >"$out/tests_sys.log"

# 2. The binaries and the examples, each built with -cover (every package of
# the module it links is counted; the report keeps the six).
for c in gatewayd sqlsh macrocheck db2www; do
	go build -cover -o "$bin/$c" "./cmd/$c"
done
for e in examples/*/; do
	e=$(basename "$e")
	go build -cover -o "$bin/example_$e" "./examples/$e"
done
export GOCOVERDIR=$sys

# gatewayd serves testdata/macros, saves its database on SIGTERM, and then
# serves the saved database again (-load), saving it once more. A server a
# failed step leaves behind is stopped on exit.
pid=
trap '[ -z "$pid" ] || kill "$pid" 2>/dev/null || true' EXIT
serve() {
	"$bin/gatewayd" -addr "127.0.0.1:$port" -macros testdata/macros -save "$out/$1" "${@:2}" >>"$out/gatewayd.log" 2>&1 &
	pid=$!
	local i
	for i in $(seq 1 100); do
		curl -sf "http://127.0.0.1:$port/readyz" >/dev/null && break
		sleep 0.1
	done
	local base=http://127.0.0.1:$port/cgi-bin/db2www
	curl -sf -o /dev/null "$base/urlquery.d2w/input"
	curl -sf -o /dev/null "$base/urlquery.d2w/report?SEARCH=ib&USE_URL=yes&USE_TITLE=yes&DBFIELDS=title"
	curl -sf -o /dev/null "$base/urlquery.d2w/report?SEARCH=ib&USE_URL=yes&USE_TITLE=yes&DBFIELDS=title"
	curl -sf -o /dev/null -d 'SEARCH=ib&USE_DESC=yes&DBFIELDS=description' "$base/urlquery.d2w/report"
	curl -s -o /dev/null -d 'SEARCH=ib&USE_URL=yes&RPT_MAXROWS=A' "$base/urlquery.d2w/report"
	curl -sf -o /dev/null "$base/figure2.d2w/input"
	curl -sf -o /dev/null "$base/rowvars.d2w/report"
	curl -s -o /dev/null "$base/nosuch.d2w/input"
	curl -s -o /dev/null -X PUT "$base/urlquery.d2w/report"
	for p in / /readyz /healthz /metrics /server-status /debug/flight; do
		curl -s -o /dev/null "http://127.0.0.1:$port$p"
	done
	kill -TERM "$pid"
	wait "$pid" || true
	pid=
}
serve dump1.sql
serve dump2.sql -load "$out/dump1.sql"

# sqlsh: EXPLAIN [ANALYZE], the meta commands, -dump and -load.
"$bin/sqlsh" -dataset orders:20:5:1 -e "EXPLAIN ANALYZE SELECT c.name, COUNT(*) AS items, SUM(p.price * p.qty) FROM customers c JOIN products p ON c.custid = p.custid WHERE c.custid = 10300 GROUP BY c.name ORDER BY c.name" >/dev/null
"$bin/sqlsh" -dataset urldb:50:1 -dump "$out/sqlsh.sql" -e "EXPLAIN SELECT url, title FROM urldb WHERE url LIKE '%ib%' ORDER BY title" >/dev/null
printf '\\d\n\\d urldb\n\\planstats\n\\check testdata/macros\nSELECT COUNT(*) FROM urldb;\n\\q\n' | "$bin/sqlsh" -load "$out/sqlsh.sql" >/dev/null

# macrocheck over both corpora, strict and schema-aware,
"$bin/macrocheck" -strict -schema testdata/appendixa.sql testdata/macros >/dev/null
"$bin/macrocheck" -strict -schema testdata/appendixa.sql benchmark/macros >/dev/null
# and over the seeded defects, which CI runs to see them fail -strict.
"$bin/macrocheck" -schema testdata/appendixa.sql testdata/lint >/dev/null

# db2www, the CGI program: a GET and a POST.
REQUEST_METHOD=GET PATH_INFO=/urlquery.d2w/input DB2WWW_MACRO_DIR=testdata/macros DB2WWW_DATASET=urldb:50:1 \
	"$bin/db2www" >/dev/null
body='SEARCH=ib&USE_URL=yes&USE_TITLE=yes&DBFIELDS=title'
printf '%s' "$body" | REQUEST_METHOD=POST PATH_INFO=/urlquery.d2w/report CONTENT_TYPE=application/x-www-form-urlencoded \
	CONTENT_LENGTH=${#body} DB2WWW_MACRO_DIR=testdata/macros DB2WWW_DATASET=urldb:50:1 "$bin/db2www" >/dev/null

for e in examples/*/; do
	"$bin/example_$(basename "$e")" >/dev/null
done
unset GOCOVERDIR

# 3. Every test.
go test -count=1 -cover -coverpkg="$pkgs" ./... -args -test.gocoverdir="$all" >"$out/tests_all.log"

# 4. The census.
go tool covdata percent -i="$sys" -pkg="$pkgs" >"$out/sys.pct"
go tool covdata percent -i="$all,$sys" -pkg="$pkgs" >"$out/all.pct"
go tool covdata func -i="$sys" -pkg="$pkgs" >"$out/sys.func"
go tool covdata func -i="$all,$sys" -pkg="$pkgs" >"$out/all.func"
echo "package  system-callers  all-tests"
awk 'NR == FNR { sys[$1] = $3; next } { printf "%s  %s  %s\n", $1, sys[$1], $3 }' "$out/sys.pct" "$out/all.pct"
awk -F'\t+' 'NR == FNR { sys[$1 FS $2] = $3; next }
	$1 != "total" && sys[$1 FS $2] == "0.0%" && $3 != "0.0%" { print $1, $2, $3 }' "$out/sys.func" "$out/all.func" |
	sed 's|^db2www/internal/||' | tee "$out/unit_only.txt"
echo "$(wc -l <"$out/unit_only.txt") functions only unit tests reach"
