package query

import (
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// FuzzParse: Parse never panics, and an accepted query prints, through
// String, a text that parses again to a query printing the same text. The
// seeds are every CQL literal of this package's tests, the query shapes of
// cosmos-bench's query_mw workload (selections, projecting selections and
// two-stream windowed joins), and texts String once printed unparseably:
// exponents, escaped quotes and sub-millisecond or overflowing spans.
func FuzzParse(f *testing.F) {
	for _, s := range testCQL(f) {
		f.Add(s)
	}
	for _, s := range []string{
		`SELECT * FROM Deployment0 [Now] WHERE snowHeight > 12.5`,
		`SELECT station, snowHeight FROM Deployment3 [Now] WHERE snowHeight > 40.0`,
		`SELECT station, snowHeight, windSpeed FROM Deployment7 [Now] WHERE snowHeight > 3.2 AND windSpeed < 9.1`,
		`SELECT S1.*, S2.* FROM Deployment1 [Range 5 Minutes] S1, Deployment2 [Range 5 Minutes] S2 ` +
			`WHERE S1.timestamp = S2.timestamp AND S1.snowHeight > S2.snowHeight AND S1.snowHeight > 20.0 AND S2.temperature < -1.5`,
		`SELECT * FROM S [Range 5000000 Seconds] WHERE a > 1000000 AND b < 0.00001 AND c = 'say "hi"\n'`,
		`SELECT * FROM S [Range 1.0000011 Seconds], T [Range 123456789 Days]`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		q, err := Parse(text)
		if err != nil {
			return
		}
		printed := q.String()
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its String %q does not parse: %v", text, printed, err)
		}
		if s := again.String(); s != printed {
			t.Fatalf("Parse(%q) prints %q, which parses to a query printing %q", text, printed, s)
		}
	})
}

// testCQL returns the string literals of this package's test files that
// hold a SELECT, the CQL the unit tests already exercise.
func testCQL(f *testing.F) []string {
	f.Helper()
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		f.Fatal(err)
	}
	var out []string
	fset := gotoken.NewFileSet()
	for _, name := range files {
		file, err := goparser.ParseFile(fset, name, nil, 0)
		if err != nil {
			f.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != gotoken.STRING {
				return true
			}
			if s, err := strconv.Unquote(lit.Value); err == nil && strings.Contains(s, "SELECT") {
				out = append(out, s)
			}
			return true
		})
	}
	return out
}
