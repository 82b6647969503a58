package engine

import (
	"fmt"
	"testing"

	"repro/internal/query"
)

// TestInputTableDrainsToEmpty: the copy-on-write input table drops a stream's
// key with its last query (the seed kept an empty entry for every stream
// ever queried), and a rejected duplicate leaves it alone.
func TestInputTableDrainsToEmpty(t *testing.T) {
	e := New()
	const n = 1000
	for i := 0; i < n; i++ {
		q := query.MustParse(fmt.Sprintf(`SELECT L.v FROM S%d [Now] L, S%d [Now] R WHERE L.v = R.v`, i, (i+1)%n))
		q.Name = fmt.Sprintf("q%d", i)
		if err := e.AddQuery(q, "res", nil); err != nil {
			t.Fatal(err)
		}
		if err := e.AddQuery(q, "res", nil); err == nil {
			t.Fatalf("duplicate %s accepted", q.Name)
		}
	}
	table := *e.byInput.Load()
	if len(table) != n {
		t.Fatalf("%d streams in the table, want %d", len(table), n)
	}
	for name, readers := range table {
		if len(readers) != 2 {
			t.Fatalf("stream %s has %d readers, want 2", name, len(readers))
		}
	}
	for i := 0; i < n; i++ {
		if _, err := e.RemoveQuery(fmt.Sprintf("q%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if table := *e.byInput.Load(); len(table) != 0 {
		t.Errorf("%d streams left in the table after the last query went", len(table))
	}
}
