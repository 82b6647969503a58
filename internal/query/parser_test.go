package query

import (
	"strings"
	"testing"
	"time"
)

func TestParsePaperQ1(t *testing.T) {
	q, err := Parse(`SELECT * FROM R [Now], S [Now] WHERE R.b = S.b AND R.a > 10 AND S.c > 10`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.From) != 2 || q.From[0].Stream != "R" || q.From[1].Stream != "S" {
		t.Fatalf("FROM = %v", q.From)
	}
	if q.From[0].Window.Kind != Now {
		t.Errorf("R window = %v", q.From[0].Window)
	}
	if len(q.Where) != 3 {
		t.Fatalf("WHERE has %d predicates", len(q.Where))
	}
	if joins := q.JoinPredicates(); len(joins) != 1 {
		t.Errorf("join predicates = %v", joins)
	}
	if sels := q.SelectionsFor("R"); len(sels) != 1 || sels[0].String() != "R.a > 10" {
		t.Errorf("selections for R = %v", sels)
	}
}

func TestParsePaperQ3(t *testing.T) {
	q, err := Parse(`SELECT S2.*
		FROM Station1 [Range 30 Minutes] S1, Station2 [Now] S2
		WHERE S1.snowHeight > S2.snowHeight AND S1.snowHeight >= 10`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.From[0].Alias != "S1" || q.From[1].Alias != "S2" {
		t.Fatalf("aliases = %v", q.From)
	}
	if q.From[0].Window.Kind != Range || q.From[0].Window.Span != 30*time.Minute {
		t.Errorf("S1 window = %v", q.From[0].Window)
	}
	if !q.Select[0].Star || q.Select[0].Col.Alias != "S2" {
		t.Errorf("projection = %v", q.Select)
	}
}

func TestParseWindows(t *testing.T) {
	cases := []struct {
		text string
		kind WindowKind
		span time.Duration
	}{
		{"S [Now]", Now, 0},
		{"S [Unbounded]", Unbounded, 0},
		{"S [Range 5 Seconds]", Range, 5 * time.Second},
		{"S [Range 2 Hours]", Range, 2 * time.Hour},
		{"S [Range 1 Day]", Range, 24 * time.Hour},
		{"S [Range 1.5 Minutes]", Range, 90 * time.Second},
		{"S", Unbounded, 0}, // window omitted
	}
	for _, c := range cases {
		q, err := Parse("SELECT * FROM " + c.text)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.text, err)
			continue
		}
		w := q.From[0].Window
		if w.Kind != c.kind || (c.kind == Range && w.Span != c.span) {
			t.Errorf("window of %q = %v", c.text, w)
		}
	}
}

func TestParseOperators(t *testing.T) {
	q, err := Parse(`SELECT * FROM S [Now] WHERE a = 1 AND b != 2 AND c < 3 AND d <= 4 AND e > 5 AND f >= 6 AND g <> 7`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	wantOps := []Op{Eq, Ne, Lt, Le, Gt, Ge, Ne}
	for i, p := range q.Where {
		if p.Op != wantOps[i] {
			t.Errorf("predicate %d op = %v, want %v", i, p.Op, wantOps[i])
		}
	}
}

func TestParseNegativeAndString(t *testing.T) {
	q, err := Parse(`SELECT * FROM S [Now] WHERE temp > -12.5 AND kind = 'snow'`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.Where[0].Right.Lit.F != -12.5 {
		t.Errorf("negative literal = %v", q.Where[0].Right.Lit)
	}
	if q.Where[1].Right.Lit.S != "snow" {
		t.Errorf("string literal = %v", q.Where[1].Right.Lit)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`SELECT`,
		`SELECT * FROM`,
		`SELECT FROM S [Now]`,
		`SELECT * FROM S [Range]`,
		`SELECT * FROM S [Range 5 Lightyears]`,
		`SELECT * FROM S [Range 123456789 Days]`, // past what a Duration holds
		`SELECT * FROM S [Now] WHERE`,
		`SELECT * FROM S [Now] WHERE a >`,
		`SELECT * FROM S [Now] WHERE a ! b`,
		`SELECT * FROM R [Now], S [Now] WHERE a > 1`, // ambiguous column
		`SELECT a FROM R [Now], S [Now]`,             // ambiguous projection
		`SELECT * FROM S [Now] extra garbage ,`,
		`SELECT * FROM S [Now] S, T [Now] S`, // duplicate alias
		`SELECT X.a FROM S [Now]`,            // unknown alias
		`SELECT * FROM S [Now] WHERE a = 'unterminated`,
	}
	for _, text := range cases {
		if _, err := Parse(text); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", text)
		}
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	texts := []string{
		`SELECT * FROM R [Now], S [Now] WHERE R.b = S.b AND R.a > 10`,
		`SELECT S1.snowHeight, S2.* FROM Station1 [Range 30 Minutes] S1, Station2 [Now] S2 WHERE S1.snowHeight >= 10`,
	}
	for _, text := range texts {
		q1, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q): %v", text, err)
		}
		q2, err := Parse(q1.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", q1.String(), err)
		}
		if q1.String() != q2.String() {
			t.Errorf("round-trip changed query:\n  %s\n  %s", q1, q2)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse did not panic on bad input")
		}
	}()
	MustParse("not a query")
}

func TestValidateCatchesUnknownAliasInWhere(t *testing.T) {
	q := MustParse(`SELECT * FROM S [Now]`)
	q.Where = append(q.Where, Predicate{
		Left:  Operand{Col: &ColRef{Alias: "ZZ", Attr: "a"}},
		Op:    Gt,
		Right: Operand{Col: &ColRef{Alias: "S", Attr: "a"}},
	})
	if err := q.Validate(); err == nil || !strings.Contains(err.Error(), "ZZ") {
		t.Errorf("Validate = %v, want unknown-alias error", err)
	}
}
