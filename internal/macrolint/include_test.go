package macrolint

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// includeNames are the files a generated include graph may name: f0…f3
// exist when the graph has that many files, m0 and m1 never do.
var includeNames = []string{"f0", "f1", "f2", "f3", "m0", "m1"}

// includeEdge is one %INCLUDE directive: its target and its line.
type includeEdge struct {
	target string
	line   int
}

// includeGraph builds files from data: each file a run of %INCLUDE
// directives (quoted or not) and of %INCLUDE text that is no directive —
// inside a %{ … %} comment, a %DEFINE {…%} value and a %SQL command —
// over blank lines. It returns the files and, per file, its directives in
// order: the graph's edges, cycles, self-includes, shared and missing
// targets among them.
func includeGraph(data []byte) (files map[string]string, edges map[string][]includeEdge) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	files, edges = map[string]string{}, map[string][]includeEdge{}
	n := 1 + next()%4
	for _, name := range includeNames[:n] {
		var b strings.Builder
		line := 1
		write := func(s string) {
			b.WriteString(s)
			line += strings.Count(s, "\n")
		}
		for k := next() % 7; k > 0; k-- {
			write(strings.Repeat("\n", next()%3))
			target := includeNames[next()%len(includeNames)]
			switch next() % 5 {
			case 0:
				edges[name] = append(edges[name], includeEdge{target, line})
				write(fmt.Sprintf("%%INCLUDE %q\n", target))
			case 1:
				edges[name] = append(edges[name], includeEdge{target, line})
				write("%include " + target + "\n")
			case 2:
				write(fmt.Sprintf("%%{ not a directive:\n%%INCLUDE %q\n%%}\n", target))
			case 3:
				write(fmt.Sprintf("%%define{\nD = {%%INCLUDE %q%%}\n%%}\n", target))
			case 4:
				write(fmt.Sprintf("%%SQL{SELECT 1 -- %%INCLUDE %q\n%%}\n", target))
			}
		}
		files[name] = b.String()
	}
	return files, edges
}

// expectedIncludes is what the include analyzer must report for the graph
// when f0 is linted, from the edges alone: the parse splices each include
// in order, a target read once; one that does not exist is reported at its
// first include and splices nothing; a target the parse is inside closes
// a cycle, which splices nothing and is reported with its chain, each loop
// of files where the parse first closes it.
func expectedIncludes(files map[string]string, edges map[string][]includeEdge) []Diagnostic {
	var out []Diagnostic
	reported := map[string]bool{}
	stack := []string{"f0"}
	var visit func(file string)
	visit = func(file string) {
		for _, e := range edges[file] {
			if i := slices.Index(stack, e.target); i >= 0 {
				loop := slices.Clone(stack[i:])
				slices.Sort(loop)
				if key := "cycle " + strings.Join(loop, " "); !reported[key] {
					reported[key] = true
					out = append(out, Diagnostic{Analyzer: "include", Severity: SevError, File: file, Line: e.line,
						Message: "%INCLUDE cycle: " + strings.Join(append(slices.Clone(stack[i:]), e.target), " -> "),
						Fix:     "remove one of the includes"})
				}
				continue
			}
			if _, ok := files[e.target]; !ok {
				if !reported[e.target] {
					reported[e.target] = true
					out = append(out, Diagnostic{Analyzer: "include", Severity: SevError, File: file, Line: e.line,
						Message: fmt.Sprintf("%%INCLUDE target %q cannot be read: no such file", e.target)})
				}
				continue
			}
			stack = append(stack, e.target)
			visit(e.target)
			stack = stack[:len(stack)-1]
		}
	}
	visit("f0")
	sortDiags(out)
	return out
}

// FuzzIncludeGraph: over generated include graphs, the include findings
// are the ones the graph's own edge list predicts, and nothing fails to
// parse.
func FuzzIncludeGraph(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 0, 0, 0, 1, 0, 0, 0})                   // f0 -> f0
	f.Add([]byte{1, 1, 0, 1, 0, 1, 0, 0, 0})                   // f0 -> f1 -> f0
	f.Add([]byte{1, 2, 0, 1, 0, 0, 4, 0, 1, 0, 0, 0})          // f0 -> f1 -> f0, then m0 from f0
	f.Add([]byte{2, 3, 1, 4, 0, 0, 4, 1, 1, 1, 0, 1, 0, 4, 0}) // m0 from f0 twice and from f1
	// f2 shared, includes m1; f0 in a comment of f2; a %SQL decoy
	f.Add([]byte{3, 4, 0, 1, 0, 1, 2, 0, 1, 2, 1, 3, 2, 4, 0, 2, 1, 5, 1, 2, 0, 2, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		files, edges := includeGraph(data)
		l := New()
		l.Resolver = func(name string) (string, error) {
			if src, ok := files[name]; ok {
				return src, nil
			}
			return "", errors.New("no such file")
		}
		var got []Diagnostic
		for _, d := range l.LintSource("f0", files["f0"]) {
			switch d.Analyzer {
			case "parse":
				t.Fatalf("%s\n%q", d, files)
			case "include":
				got = append(got, d)
			}
		}
		if want := expectedIncludes(files, edges); !reflect.DeepEqual(got, want) {
			t.Fatalf("include findings\n got %v\nwant %v\nfiles %q", got, want, files)
		}
	})
}
