package cli

import (
	"reflect"
	"strconv"
	"testing"
)

func TestList(t *testing.T) {
	ints, err := List(" 1, 3 ,5", strconv.Atoi)
	if err != nil || !reflect.DeepEqual(ints, []int{1, 3, 5}) {
		t.Fatalf("List ints = %v, %v", ints, err)
	}
	floats, err := List("0,0.5,2", Float)
	if err != nil || !reflect.DeepEqual(floats, []float64{0, 0.5, 2}) {
		t.Fatalf("List floats = %v, %v", floats, err)
	}
	if _, err := List("1,x", Float); err == nil {
		t.Fatal("malformed element accepted")
	}
}
