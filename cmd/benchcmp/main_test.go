package main

import (
	"reflect"
	"testing"

	"eprons/internal/benchparse"
)

// unmatched feeds both the one-sided listing and the guard's missing-
// benchmark failure: it must report exactly the names the other run
// lacks, in the first run's order.
func TestUnmatched(t *testing.T) {
	other := map[string]benchparse.Summary{"B": {}, "D": {}}
	if got := unmatched([]string{"A", "B", "C", "D"}, other); !reflect.DeepEqual(got, []string{"A", "C"}) {
		t.Errorf("unmatched = %v, want [A C]", got)
	}
	if got := unmatched([]string{"B", "D"}, other); got != nil {
		t.Errorf("unmatched = %v, want none", got)
	}
}
