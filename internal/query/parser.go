package query

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/stream"
)

// Parse parses a query in the paper's CQL dialect, e.g.
//
//	SELECT S2.*, S1.snowHeight FROM Station1 [Range 30 Minutes] S1,
//	Station2 [Now] S2 WHERE S1.snowHeight > S2.snowHeight AND S1.snowHeight >= 10
//
// Grammar:
//
//	query      = "SELECT" selectList "FROM" fromList ["WHERE" predicates]
//	selectList = selectItem {"," selectItem}
//	selectItem = "*" | ident "." "*" | ident ["." ident]
//	fromList   = streamRef {"," streamRef}
//	streamRef  = ident "[" window "]" [ident]
//	window     = "Now" | "Unbounded" | "Range" number unit
//	unit       = "Seconds"|"Minutes"|"Hours"|"Days" (singular accepted)
//	predicates = predicate {"AND" predicate}
//	predicate  = operand cmp operand
//	operand    = ["-"] number | string | ident ["." ident]
//	cmp        = "=" | "!=" | "<" | "<=" | ">" | ">="
//
// Unqualified column references resolve to the single FROM alias when the
// query has exactly one stream, and are an error otherwise.
func Parse(text string) (*Query, error) {
	toks, err := lex(text)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// MustParse parses text and panics on error. It exists for tests and
// package-level example construction only.
//
//lint:deadcode query builder of the query, engine and opplace tests and the root sharing and lifecycle tests (TestDifferentialAgainstReference and TestLifecycleMatchesUnmergedEngine among them)
func MustParse(text string) *Query {
	q, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return q
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) keyword(kw string) bool {
	t := p.cur()
	if t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.keyword(kw) {
		return fmt.Errorf("query: expected %s, got %s at offset %d", kw, p.cur(), p.cur().pos)
	}
	return nil
}

func (p *parser) expect(k tokenKind, what string) (token, error) {
	t := p.cur()
	if t.kind != k {
		return token{}, fmt.Errorf("query: expected %s, got %s at offset %d", what, t, t.pos)
	}
	p.i++
	return t, nil
}

func (p *parser) parseQuery() (*Query, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel, err := p.parseSelectList()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	from, err := p.parseFromList()
	if err != nil {
		return nil, err
	}
	q := &Query{Select: sel, From: from}
	if p.keyword("WHERE") {
		preds, err := p.parsePredicates(q)
		if err != nil {
			return nil, err
		}
		q.Where = preds
	}
	if p.cur().kind != tokEOF {
		return nil, fmt.Errorf("query: trailing input %s at offset %d", p.cur(), p.cur().pos)
	}
	if err := p.resolveSelect(q); err != nil {
		return nil, err
	}
	return q, nil
}

func (p *parser) parseSelectList() ([]Projection, error) {
	var out []Projection
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		out = append(out, item)
		if p.cur().kind != tokComma {
			return out, nil
		}
		p.i++
	}
}

func (p *parser) parseSelectItem() (Projection, error) {
	if p.cur().kind == tokStar {
		p.i++
		return Projection{Star: true}, nil
	}
	id, err := p.expect(tokIdent, "identifier")
	if err != nil {
		return Projection{}, err
	}
	if p.cur().kind != tokDot {
		// Unqualified column; alias resolved after FROM is known.
		return Projection{Col: ColRef{Attr: id.text}}, nil
	}
	p.i++
	if p.cur().kind == tokStar {
		p.i++
		return Projection{Star: true, Col: ColRef{Alias: id.text}}, nil
	}
	attr, err := p.expect(tokIdent, "attribute name")
	if err != nil {
		return Projection{}, err
	}
	return Projection{Col: ColRef{Alias: id.text, Attr: attr.text}}, nil
}

func (p *parser) parseFromList() ([]StreamRef, error) {
	var out []StreamRef
	for {
		ref, err := p.parseStreamRef()
		if err != nil {
			return nil, err
		}
		out = append(out, ref)
		if p.cur().kind != tokComma {
			return out, nil
		}
		p.i++
	}
}

func (p *parser) parseStreamRef() (StreamRef, error) {
	name, err := p.expect(tokIdent, "stream name")
	if err != nil {
		return StreamRef{}, err
	}
	ref := StreamRef{Stream: name.text, Alias: name.text, Window: Window{Kind: Unbounded}}
	if p.cur().kind == tokLBracket {
		p.i++
		w, err := p.parseWindow()
		if err != nil {
			return StreamRef{}, err
		}
		ref.Window = w
		if _, err := p.expect(tokRBracket, "]"); err != nil {
			return StreamRef{}, err
		}
	}
	if p.cur().kind == tokIdent && !isKeyword(p.cur().text) {
		ref.Alias = p.next().text
	}
	return ref, nil
}

func isKeyword(s string) bool {
	switch strings.ToUpper(s) {
	case "SELECT", "FROM", "WHERE", "AND":
		return true
	}
	return false
}

func (p *parser) parseWindow() (Window, error) {
	switch {
	case p.keyword("Now"):
		return Window{Kind: Now}, nil
	case p.keyword("Unbounded"):
		return Window{Kind: Unbounded}, nil
	case p.keyword("Range"):
		num, err := p.expect(tokNumber, "window length")
		if err != nil {
			return Window{}, err
		}
		n, err := strconv.ParseFloat(num.text, 64)
		if err != nil {
			return Window{}, fmt.Errorf("query: bad window length %q: %v", num.text, err)
		}
		unit, err := p.expect(tokIdent, "time unit")
		if err != nil {
			return Window{}, err
		}
		d, err := parseUnit(unit.text)
		if err != nil {
			return Window{}, err
		}
		return Window{Kind: Range, Span: time.Duration(n * float64(d))}, nil
	default:
		return Window{}, fmt.Errorf("query: expected window spec, got %s at offset %d", p.cur(), p.cur().pos)
	}
}

func parseUnit(s string) (time.Duration, error) {
	switch strings.ToLower(strings.TrimSuffix(strings.ToLower(s), "s")) {
	case "millisecond", "milli":
		return time.Millisecond, nil
	case "second", "sec":
		return time.Second, nil
	case "minute", "min":
		return time.Minute, nil
	case "hour":
		return time.Hour, nil
	case "day":
		return 24 * time.Hour, nil
	default:
		return 0, fmt.Errorf("query: unknown time unit %q", s)
	}
}

func (p *parser) parsePredicates(q *Query) ([]Predicate, error) {
	var out []Predicate
	for {
		pred, err := p.parsePredicate(q)
		if err != nil {
			return nil, err
		}
		out = append(out, pred)
		if !p.keyword("AND") {
			return out, nil
		}
	}
}

func (p *parser) parsePredicate(q *Query) (Predicate, error) {
	left, err := p.parseOperand(q)
	if err != nil {
		return Predicate{}, err
	}
	opTok, err := p.expect(tokOp, "comparison operator")
	if err != nil {
		return Predicate{}, err
	}
	op, err := parseOp(opTok.text)
	if err != nil {
		return Predicate{}, err
	}
	right, err := p.parseOperand(q)
	if err != nil {
		return Predicate{}, err
	}
	return Predicate{Left: left, Op: op, Right: right}, nil
}

func parseOp(s string) (Op, error) {
	switch s {
	case "=":
		return Eq, nil
	case "!=":
		return Ne, nil
	case "<":
		return Lt, nil
	case "<=":
		return Le, nil
	case ">":
		return Gt, nil
	case ">=":
		return Ge, nil
	default:
		return 0, fmt.Errorf("query: unknown operator %q", s)
	}
}

func (p *parser) parseOperand(q *Query) (Operand, error) {
	neg := false
	if p.cur().kind == tokMinus {
		neg = true
		p.i++
	}
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.i++
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return Operand{}, fmt.Errorf("query: bad number %q: %v", t.text, err)
		}
		if neg {
			f = -f
		}
		v := stream.FloatVal(f)
		return Operand{Lit: &v}, nil
	case tokString:
		if neg {
			return Operand{}, fmt.Errorf("query: '-' before string at offset %d", t.pos)
		}
		p.i++
		v := stream.StringVal(t.text)
		return Operand{Lit: &v}, nil
	case tokIdent:
		if neg {
			return Operand{}, fmt.Errorf("query: '-' before column at offset %d", t.pos)
		}
		p.i++
		col := ColRef{Attr: t.text}
		if p.cur().kind == tokDot {
			p.i++
			attr, err := p.expect(tokIdent, "attribute name")
			if err != nil {
				return Operand{}, err
			}
			col = ColRef{Alias: t.text, Attr: attr.text}
		} else if len(q.From) == 1 {
			col.Alias = q.From[0].Alias
		} else {
			return Operand{}, fmt.Errorf(
				"query: unqualified column %q is ambiguous over %d streams", t.text, len(q.From))
		}
		return Operand{Col: &col}, nil
	default:
		return Operand{}, fmt.Errorf("query: expected operand, got %s at offset %d", t, t.pos)
	}
}

// resolveSelect fills in aliases for unqualified SELECT columns on single-
// stream queries and rejects ambiguous ones.
func (p *parser) resolveSelect(q *Query) error {
	for i := range q.Select {
		item := &q.Select[i]
		if item.Star || item.Col.Alias != "" {
			continue
		}
		if len(q.From) != 1 {
			return fmt.Errorf("query: unqualified column %q is ambiguous over %d streams",
				item.Col.Attr, len(q.From))
		}
		item.Col.Alias = q.From[0].Alias
	}
	return nil
}
