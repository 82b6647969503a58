// Package query implements the CQL-like continuous query dialect used
// throughout the paper (Table 1): SELECT projections over windowed stream
// references with conjunctive WHERE predicates. It provides the parser, the
// predicate algebra, and the window-based containment and merging theorems
// that COSMOS uses to share result-stream delivery (§2.1).
package query

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/stream"
)

// WindowKind distinguishes the window specifications of the dialect.
type WindowKind int

// Window kinds. Now is the degenerate zero-length window; Range carries a
// span; Unbounded admits the whole history.
const (
	Now WindowKind = iota + 1
	Range
	Unbounded
)

// Window is a time-based sliding window attached to a stream reference.
type Window struct {
	Kind WindowKind
	Span time.Duration // meaningful only for Range
}

// Covers reports whether w admits at least the tuples of o: a window covers
// another if its span is at least as long.
func (w Window) Covers(o Window) bool {
	return w.spanOrInf() >= o.spanOrInf()
}

// MaxWindow returns the wider of the two windows.
func MaxWindow(a, b Window) Window {
	if a.Covers(b) {
		return a
	}
	return b
}

func (w Window) spanOrInf() time.Duration {
	switch w.Kind {
	case Now:
		return 0
	case Unbounded:
		return time.Duration(1<<63 - 1)
	default:
		return w.Span
	}
}

func (w Window) String() string {
	switch w.Kind {
	case Now:
		return "[Now]"
	case Unbounded:
		return "[Unbounded]"
	default:
		n, unit := spanUnits(w.Span)
		return fmt.Sprintf("[Range %g %s]", n, unit)
	}
}

// spanUnits renders a duration in the largest CQL unit that divides it, so
// String output parses back losslessly.
func spanUnits(d time.Duration) (float64, string) {
	day := 24 * time.Hour
	switch {
	case d >= day && d%day == 0:
		return float64(d / day), "Days"
	case d >= time.Hour && d%time.Hour == 0:
		return float64(d / time.Hour), "Hours"
	case d >= time.Minute && d%time.Minute == 0:
		return float64(d / time.Minute), "Minutes"
	case d >= time.Second && d%time.Second == 0:
		return float64(d / time.Second), "Seconds"
	default:
		return float64(d) / float64(time.Millisecond), "Milliseconds"
	}
}

// StreamRef is one entry of the FROM clause: a stream name, a window, and an
// optional alias (defaulting to the stream name).
type StreamRef struct {
	Stream string
	Alias  string
	Window Window
}

func (r StreamRef) String() string {
	if r.Alias != "" && r.Alias != r.Stream {
		return fmt.Sprintf("%s %s %s", r.Stream, r.Window, r.Alias)
	}
	return fmt.Sprintf("%s %s", r.Stream, r.Window)
}

// ColRef names an attribute of an aliased stream, e.g. S1.snowHeight.
type ColRef struct {
	Alias string
	Attr  string
}

func (c ColRef) String() string {
	if c.Alias == "" {
		return c.Attr
	}
	return c.Alias + "." + c.Attr
}

// Projection is one SELECT item: either Alias.* (Star) or a single column.
type Projection struct {
	Star bool
	Col  ColRef // for Star, only Col.Alias is meaningful ("" = bare *)
}

func (p Projection) String() string {
	if p.Star {
		if p.Col.Alias == "" {
			return "*"
		}
		return p.Col.Alias + ".*"
	}
	return p.Col.String()
}

// Op is a comparison operator.
type Op int

// Comparison operators.
const (
	Eq Op = iota + 1
	Ne
	Lt
	Le
	Gt
	Ge
)

var opNames = map[Op]string{Eq: "=", Ne: "!=", Lt: "<", Le: "<=", Gt: ">", Ge: ">="}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Flip returns the operator with swapped operand order (a < b ⇔ b > a).
func (o Op) Flip() Op {
	switch o {
	case Lt:
		return Gt
	case Le:
		return Ge
	case Gt:
		return Lt
	case Ge:
		return Le
	default:
		return o
	}
}

// Eval applies the operator to a three-way comparison result.
func (o Op) Eval(cmp int) bool {
	switch o {
	case Eq:
		return cmp == 0
	case Ne:
		return cmp != 0
	case Lt:
		return cmp < 0
	case Le:
		return cmp <= 0
	case Gt:
		return cmp > 0
	case Ge:
		return cmp >= 0
	default:
		return false
	}
}

// Operand is either a column reference or a literal value.
type Operand struct {
	Col *ColRef
	Lit *stream.Value
}

// IsCol reports whether the operand is a column reference.
func (o Operand) IsCol() bool { return o.Col != nil }

func (o Operand) String() string {
	if o.Col != nil {
		return o.Col.String()
	}
	if o.Lit != nil {
		return o.Lit.String()
	}
	return "?"
}

// Predicate is a binary comparison. The WHERE clause is a conjunction of
// predicates. A predicate with two column operands referencing different
// aliases is a join predicate; one column and one literal is a selection.
type Predicate struct {
	Left  Operand
	Op    Op
	Right Operand
}

// IsJoin reports whether the predicate compares columns of two different
// aliases.
func (p Predicate) IsJoin() bool {
	return p.Left.IsCol() && p.Right.IsCol() && p.Left.Col.Alias != p.Right.Col.Alias
}

// IsSelection reports whether the predicate compares a column to a literal.
func (p Predicate) IsSelection() bool {
	return p.Left.IsCol() != p.Right.IsCol()
}

// Normalize returns the predicate with a canonical operand order: selections
// carry the column on the left; column-column comparisons order the two
// columns lexicographically.
func (p Predicate) Normalize() Predicate {
	switch {
	case !p.Left.IsCol() && p.Right.IsCol():
		return Predicate{Left: p.Right, Op: p.Op.Flip(), Right: p.Left}
	case p.Left.IsCol() && p.Right.IsCol():
		if p.Right.Col.String() < p.Left.Col.String() {
			return Predicate{Left: p.Right, Op: p.Op.Flip(), Right: p.Left}
		}
	}
	return p
}

func (p Predicate) String() string {
	return p.Left.String() + " " + p.Op.String() + " " + p.Right.String()
}

// Query is a parsed continuous query.
type Query struct {
	Name   string // assigned by the submitter; not part of the text
	Select []Projection
	From   []StreamRef
	Where  []Predicate
}

// StreamNames returns the distinct source stream names in FROM order.
func (q *Query) StreamNames() []string {
	seen := make(map[string]bool, len(q.From))
	out := make([]string, 0, len(q.From))
	for _, r := range q.From {
		if !seen[r.Stream] {
			seen[r.Stream] = true
			out = append(out, r.Stream)
		}
	}
	return out
}

// RefByAlias returns the FROM entry with the given alias.
func (q *Query) RefByAlias(alias string) (StreamRef, bool) {
	for _, r := range q.From {
		if r.Alias == alias {
			return r, true
		}
	}
	return StreamRef{}, false
}

// SelectionsFor returns the selection predicates on the given alias.
func (q *Query) SelectionsFor(alias string) []Predicate {
	var out []Predicate
	for _, p := range q.Where {
		p = p.Normalize()
		if p.IsSelection() && p.Left.Col.Alias == alias {
			out = append(out, p)
		}
	}
	return out
}

// JoinPredicates returns the join predicates of the query.
func (q *Query) JoinPredicates() []Predicate {
	var out []Predicate
	for _, p := range q.Where {
		if p.IsJoin() {
			out = append(out, p)
		}
	}
	return out
}

// Validate checks structural consistency: non-empty SELECT and FROM, unique
// aliases, and predicates/projections referencing known aliases.
func (q *Query) Validate() error {
	if len(q.Select) == 0 {
		return fmt.Errorf("query %s: empty SELECT list", q.Name)
	}
	if len(q.From) == 0 {
		return fmt.Errorf("query %s: empty FROM list", q.Name)
	}
	aliases := make(map[string]bool, len(q.From))
	for _, r := range q.From {
		if r.Alias == "" {
			return fmt.Errorf("query %s: stream %q missing alias", q.Name, r.Stream)
		}
		if aliases[r.Alias] {
			return fmt.Errorf("query %s: duplicate alias %q", q.Name, r.Alias)
		}
		aliases[r.Alias] = true
	}
	check := func(c *ColRef) error {
		if c == nil || c.Alias == "" {
			return nil
		}
		if !aliases[c.Alias] {
			return fmt.Errorf("query %s: unknown alias %q", q.Name, c.Alias)
		}
		return nil
	}
	for _, p := range q.Select {
		if !p.Star || p.Col.Alias != "" {
			if err := check(&p.Col); err != nil {
				return err
			}
		}
	}
	for _, p := range q.Where {
		if err := check(p.Left.Col); err != nil {
			return err
		}
		if err := check(p.Right.Col); err != nil {
			return err
		}
	}
	return nil
}

// String renders the query back to (canonicalized) CQL text.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, p := range q.Select {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(p.String())
	}
	b.WriteString(" FROM ")
	for i, r := range q.From {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(r.String())
	}
	if len(q.Where) > 0 {
		b.WriteString(" WHERE ")
		for i, p := range q.Where {
			if i > 0 {
				b.WriteString(" AND ")
			}
			b.WriteString(p.String())
		}
	}
	return b.String()
}
