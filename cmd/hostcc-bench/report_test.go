package main

import "testing"

// TestLeafSpineShapeResolved: the bench reports record the fabric shape
// that ran, not the raw flags — an unset -leaves/-spines is the 2x2
// default.
func TestLeafSpineShapeResolved(t *testing.T) {
	for _, c := range []struct{ leaves, spines, wantL, wantS int }{
		{0, 0, 2, 2},
		{4, 2, 4, 2},
		{3, 0, 3, 2},
		{0, 4, 2, 4},
	} {
		if l, s := leafSpineShape(c.leaves, c.spines); l != c.wantL || s != c.wantS {
			t.Errorf("leafSpineShape(%d, %d) = %dx%d, want %dx%d", c.leaves, c.spines, l, s, c.wantL, c.wantS)
		}
	}
}
