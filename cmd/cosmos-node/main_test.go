package main

import (
	"bytes"
	"errors"
	"log/slog"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/nodeconfig"
	"repro/internal/query"
)

func TestParseSubscriptionStreamOnly(t *testing.T) {
	sub, err := parseSubscription("n1", "SELECT * FROM Station1")
	if err != nil {
		t.Fatal(err)
	}
	if sub.ID != "n1" || len(sub.Streams) != 1 || sub.Streams[0] != "Station1" || len(sub.Filters) != 0 || sub.Attrs != nil {
		t.Fatalf("sub = %+v", sub)
	}
}

func TestParseSubscriptionOperators(t *testing.T) {
	cases := []struct {
		expr string
		attr string
		op   query.Op
		val  float64
	}{
		{"SELECT * FROM Station1 WHERE snowHeight > 40", "snowHeight", query.Gt, 40},
		{"SELECT * FROM Station1 WHERE snowHeight >= 40", "snowHeight", query.Ge, 40},
		{"SELECT * FROM Station1 WHERE snowHeight < 40", "snowHeight", query.Lt, 40},
		{"SELECT * FROM Station1 WHERE snowHeight <= 40.5", "snowHeight", query.Le, 40.5},
		{"SELECT * FROM Station1 WHERE temperature <= -2", "temperature", query.Le, -2},  // negative literal
		{"select * from Station1 S where 40 < S.snowHeight", "snowHeight", query.Gt, 40}, // literal on the left, alias
	}
	for _, c := range cases {
		sub, err := parseSubscription("n", c.expr)
		if err != nil {
			t.Errorf("parseSubscription(%q): %v", c.expr, err)
			continue
		}
		if len(sub.Filters) != 1 {
			t.Errorf("parseSubscription(%q): %d filters, want 1", c.expr, len(sub.Filters))
			continue
		}
		f := sub.Filters[0]
		if f.Left.Col == nil || *f.Left.Col != (query.ColRef{Attr: c.attr}) {
			t.Errorf("parseSubscription(%q): column = %+v, want bare %s", c.expr, f.Left.Col, c.attr)
		}
		if f.Op != c.op {
			t.Errorf("parseSubscription(%q): op = %v, want %v", c.expr, f.Op, c.op)
		}
		if f.Right.Lit == nil || f.Right.Lit.F != c.val {
			t.Errorf("parseSubscription(%q): literal = %+v, want %v", c.expr, f.Right.Lit, c.val)
		}
	}
}

// TestParseSubscriptionKeepsFilterColumns: a filtered column the select
// list leaves out joins the projection (timestamp travels with every tuple
// and does not), and one it names is not repeated.
func TestParseSubscriptionKeepsFilterColumns(t *testing.T) {
	sub, err := parseSubscription("n", "SELECT station FROM Station1 WHERE snowHeight >= 0 AND station > 2 AND timestamp > 5")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"station", "snowHeight"}; !slices.Equal(sub.Attrs, want) {
		t.Errorf("Attrs = %q, want %q", sub.Attrs, want)
	}
}

func TestParseSubscriptionConjunctionAndAttrs(t *testing.T) {
	sub, err := parseSubscription("n", "SELECT station, snowHeight FROM Station1 WHERE snowHeight >= 0 AND snowHeight < 100")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"station", "snowHeight"}; !slices.Equal(sub.Attrs, want) {
		t.Errorf("Attrs = %q, want %q", sub.Attrs, want)
	}
	var got []string
	for _, f := range sub.Filters {
		got = append(got, f.String())
	}
	if want := []string{"snowHeight >= 0", "snowHeight < 100"}; !slices.Equal(got, want) {
		t.Errorf("Filters = %q, want %q", got, want)
	}
}

func TestParseSubscriptionErrors(t *testing.T) {
	for _, expr := range []string{
		"SELECT * FROM Station1, Station2",                      // two streams
		"SELECT * FROM Station1 WHERE snowHeight > temperature", // column vs column
		"SELECT * FROM Station1 WHERE snowHeight >",             // unparsable
		"Station1:snowHeight>40",                                // the retired stream:attr>num form
		"",                                                      // empty
	} {
		if _, err := parseSubscription("n", expr); err == nil {
			t.Errorf("parseSubscription(%q): want error", expr)
		}
	}
}

// lineRE is the OPS.md "Logging" line schema.
var lineRE = regexp.MustCompile(`^ts=\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}\.\d{3}Z level=(\w+) msg=(.*)$`)

// TestLoggerSchema pins newLogger to the OPS.md log schema: the timestamp
// and lower-case level up front, logfmt quoting, the level gate, bound
// fields and whole lines under concurrent writers.
func TestLoggerSchema(t *testing.T) {
	level := func(name string) slog.Level {
		l, err := nodeconfig.ParseLogLevel(name)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}

	t.Run("schema", func(t *testing.T) {
		var buf bytes.Buffer
		newLogger(&buf, level("debug")).Warn("hello", "node", 3, "addr", "127.0.0.1:7000")
		m := lineRE.FindStringSubmatch(strings.TrimSuffix(buf.String(), "\n"))
		if m == nil {
			t.Fatalf("line does not match schema: %q", buf.String())
		}
		if m[1] != "warn" {
			t.Errorf("level = %q, want warn", m[1])
		}
		if want := "hello node=3 addr=127.0.0.1:7000"; m[2] != want {
			t.Errorf("payload = %q, want %q", m[2], want)
		}
	})

	t.Run("quoting", func(t *testing.T) {
		var buf bytes.Buffer
		newLogger(&buf, level("info")).Info("two words", "err", errors.New(`dial "x": refused`), "empty", "", "eq", "a=b")
		for _, want := range []string{`msg="two words"`, `err="dial \"x\": refused"`, `empty=""`, `eq="a=b"`} {
			if !strings.Contains(buf.String(), want) {
				t.Errorf("output missing %q: %q", want, buf.String())
			}
		}
	})

	t.Run("level_gate", func(t *testing.T) {
		var buf bytes.Buffer
		l := newLogger(&buf, level("warn"))
		l.Debug("d")
		l.Info("i")
		if buf.Len() != 0 {
			t.Fatalf("gated records emitted: %q", buf.String())
		}
		l.Warn("w")
		l.Error("e")
		if n := strings.Count(buf.String(), "\n"); n != 2 {
			t.Fatalf("want 2 records, got %d: %q", n, buf.String())
		}
	})

	t.Run("off", func(t *testing.T) {
		var buf bytes.Buffer
		newLogger(&buf, level("off")).Error("x")
		if buf.Len() != 0 {
			t.Fatalf("log-level off emitted: %q", buf.String())
		}
	})

	t.Run("with", func(t *testing.T) {
		var buf bytes.Buffer
		l := newLogger(&buf, level("info"))
		l.With("node", 3).Info("up", "addr", ":9")
		l.Info("plain")
		lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
		if len(lines) != 2 || !strings.HasSuffix(lines[0], "msg=up node=3 addr=:9") || strings.Contains(lines[1], "node=3") {
			t.Fatalf("With must bind node=3 to the child only: %q", lines)
		}
	})

	t.Run("user_keys", func(t *testing.T) {
		var buf bytes.Buffer
		l := newLogger(&buf, level("info"))
		l.Info("x", "level", "high")
		l.WithGroup("g").Info("y", "time", time.Unix(0, 0).UTC())
		for _, want := range []string{"level=info msg=x level=high\n", "msg=y g.time=1970-01-01T00:00:00.000Z\n"} {
			if !strings.Contains(buf.String(), want) {
				t.Errorf("output missing %q: %q", want, buf.String())
			}
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		var buf bytes.Buffer
		l := newLogger(&buf, level("info"))
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				child := l.With("g", g)
				for i := 0; i < 50; i++ {
					child.Info("tick", "i", i)
				}
			}(g)
		}
		wg.Wait()
		lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
		if len(lines) != 400 {
			t.Fatalf("want 400 lines, got %d", len(lines))
		}
		for _, line := range lines {
			if !lineRE.MatchString(line) {
				t.Fatalf("interleaved or malformed line: %q", line)
			}
		}
	})
}
