package query

import (
	"fmt"
	"testing"
)

// The paper's Table 1 queries.
func paperQ3() *Query {
	q := MustParse(`SELECT S2.* FROM Station1 [Range 30 Minutes] S1, Station2 [Now] S2
		WHERE S1.snowHeight > S2.snowHeight AND S1.snowHeight >= 10`)
	q.Name = "Q3"
	return q
}

func paperQ4() *Query {
	q := MustParse(`SELECT S1.snowHeight, S1.timestamp, S2.snowHeight, S2.timestamp
		FROM Station1 [Range 1 Hour] S1, Station2 [Now] S2
		WHERE S1.snowHeight > S2.snowHeight`)
	q.Name = "Q4"
	return q
}

func paperQ5() *Query {
	q := MustParse(`SELECT S2.*, S1.snowHeight, S1.timestamp
		FROM Station1 [Range 1 Hour] S1, Station2 [Now] S2
		WHERE S1.snowHeight > S2.snowHeight`)
	q.Name = "Q5"
	return q
}

// TestPaperContainment verifies the §2.1 relations: Q5 contains both Q3 and
// Q4, while neither contains the other.
func TestPaperContainment(t *testing.T) {
	q3, q4, q5 := paperQ3(), paperQ4(), paperQ5()
	if !Contains(q5, q3) {
		t.Error("Q5 should contain Q3")
	}
	if !Contains(q5, q4) {
		t.Error("Q5 should contain Q4")
	}
	if Contains(q3, q4) {
		t.Error("Q3 should not contain Q4 (narrower window, extra filter)")
	}
	if Contains(q4, q3) {
		t.Error("Q4 should not contain Q3 (projection misses S2.*)")
	}
	if Contains(q3, q5) {
		t.Error("Q3 should not contain Q5")
	}
}

// merge is the pair step of a sharing group, read off MergeAll: q2 joining
// the group q1 founds. Groups keys members by name, so the two must differ.
func merge(q1, q2 *Query) (*Shared, error) {
	merged, _ := MergeAll([]*Query{q1, q2})
	if len(merged) != 1 {
		return nil, fmt.Errorf("%s and %s do not share a group", q1.Name, q2.Name)
	}
	return &merged[0], nil
}

// TestPaperMerge reproduces the Q3+Q4 → Q5 composition of §2.1.
func TestPaperMerge(t *testing.T) {
	q3, q4 := paperQ3(), paperQ4()
	mr, err := merge(q3, q4)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	super := mr.Super
	if !Contains(super, q3) || !Contains(super, q4) {
		t.Fatalf("superset %s does not contain inputs", super)
	}
	if q5 := paperQ5(); !Contains(super, q5) || !Contains(q5, super) {
		t.Errorf("merged query not equivalent to the paper's Q5:\n  got  %s\n  want %s",
			super, paperQ5())
	}
	// Residual of Q3 must re-apply its filter and its 30-minute window.
	var resQ3, resQ4 *Residual
	for i := range mr.Residuals {
		switch mr.Residuals[i].Query.Name {
		case "Q3":
			resQ3 = &mr.Residuals[i]
		case "Q4":
			resQ4 = &mr.Residuals[i]
		}
	}
	if resQ3 == nil || resQ4 == nil {
		t.Fatalf("missing residuals: %+v", mr.Residuals)
	}
	if len(resQ3.Filters) != 1 || resQ3.Filters[0].String() != "S1.snowHeight >= 10" {
		t.Errorf("Q3 residual filters = %v", resQ3.Filters)
	}
	if w, ok := resQ3.Windows["S1"]; !ok || w.Span.Minutes() != 30 {
		t.Errorf("Q3 residual windows = %v", resQ3.Windows)
	}
	if len(resQ4.Filters) != 0 || len(resQ4.Windows) != 0 {
		t.Errorf("Q4 residual should be empty: filters=%v windows=%v", resQ4.Filters, resQ4.Windows)
	}
}

func TestContainsRejectsDifferentStreams(t *testing.T) {
	a := MustParse(`SELECT * FROM R [Now]`)
	b := MustParse(`SELECT * FROM S [Now]`)
	if Contains(a, b) || Contains(b, a) {
		t.Error("queries over different streams must not contain each other")
	}
}

func TestContainsAliasIndependent(t *testing.T) {
	a := MustParse(`SELECT X.a FROM S [Range 1 Hour] X WHERE X.a > 5`)
	b := MustParse(`SELECT Y.a FROM S [Range 30 Minutes] Y WHERE Y.a > 10`)
	if !Contains(a, b) {
		t.Error("containment must match streams by name, not alias")
	}
	if Contains(b, a) {
		t.Error("narrower query cannot contain wider")
	}
}

func TestMergeRejectsJoinMismatch(t *testing.T) {
	a := MustParse(`SELECT * FROM R [Now], S [Now] WHERE R.a = S.a`)
	a.Name = "a"
	b := MustParse(`SELECT * FROM R [Now], S [Now] WHERE R.b = S.b`)
	b.Name = "b"
	if _, err := merge(a, b); err == nil {
		t.Error("merge accepted different join predicates")
	}
	c := MustParse(`SELECT * FROM R [Now], S [Now]`)
	c.Name = "c"
	if _, err := merge(a, c); err == nil {
		t.Error("merge accepted missing join predicate")
	}
}

func TestMergeSelectionUnion(t *testing.T) {
	a := MustParse(`SELECT * FROM S [Now] WHERE a > 10`)
	a.Name = "A"
	b := MustParse(`SELECT * FROM S [Now] WHERE a > 20`)
	b.Name = "B"
	mr, err := merge(a, b)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	// Union keeps the weaker bound a > 10.
	if len(mr.Super.Where) != 1 || mr.Super.Where[0].String() != "S.a > 10" {
		t.Errorf("superset WHERE = %v", mr.Super.Where)
	}
	// B must re-apply its stricter filter.
	for _, r := range mr.Residuals {
		switch r.Query.Name {
		case "A":
			if len(r.Filters) != 0 {
				t.Errorf("A residual = %v", r.Filters)
			}
		case "B":
			if len(r.Filters) != 1 {
				t.Errorf("B residual = %v", r.Filters)
			}
		}
	}
}

func TestMergeDisjointSelectionColumnsDropsFilter(t *testing.T) {
	a := MustParse(`SELECT * FROM S [Now] WHERE a > 10`)
	a.Name = "a"
	b := MustParse(`SELECT * FROM S [Now] WHERE b < 5`)
	b.Name = "b"
	mr, err := merge(a, b)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	// Neither filter can survive: the superset must admit both results.
	if len(mr.Super.Where) != 0 {
		t.Errorf("superset WHERE = %v, want empty", mr.Super.Where)
	}
}

func TestMergeAllGroups(t *testing.T) {
	q1 := MustParse(`SELECT * FROM S [Now] WHERE a > 10`)
	q1.Name = "q1"
	q2 := MustParse(`SELECT * FROM S [Now] WHERE a > 20`)
	q2.Name = "q2"
	q3 := MustParse(`SELECT * FROM T [Now] WHERE x < 1`)
	q3.Name = "q3"
	merged, leftovers := MergeAll([]*Query{q1, q2, q3})
	if len(merged) != 1 {
		t.Fatalf("merged groups = %d, want 1", len(merged))
	}
	if len(merged[0].Residuals) != 2 {
		t.Errorf("group residuals = %d, want 2", len(merged[0].Residuals))
	}
	if len(leftovers) != 1 || leftovers[0].Name != "q3" {
		t.Errorf("leftovers = %v", leftovers)
	}
}

func TestSelfJoinRejected(t *testing.T) {
	q := MustParse(`SELECT * FROM S [Now] A, S [Now] B WHERE A.x = B.x`)
	if Contains(q, q) {
		t.Error("self-join containment should be rejected (conservatively)")
	}
	q.Name = "q"
	twin := MustParse(`SELECT * FROM S [Now] A, S [Now] B WHERE A.x = B.x`)
	twin.Name = "twin"
	if _, err := merge(q, twin); err == nil {
		t.Error("self-join merge should fail")
	}
}

func TestEquivalentReflexive(t *testing.T) {
	q := paperQ4()
	if q4 := paperQ4(); !Contains(q, q4) || !Contains(q4, q) {
		t.Error("query not equivalent to itself")
	}
}
