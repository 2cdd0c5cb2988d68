package main

import (
	"math"
	"testing"
)

func TestCheckLifetimes(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		h, infant, infantH float64
		ok                 bool
	}{
		{1024, 0, 0, true},
		{0.5, 0, 0, true},
		{1024, 0.9, 16, true},
		{1024, 0, nan, true}, // the infant half-life is unused at -infant 0
		{nan, 0, 0, false},
		{inf, 0, 0, false},
		{0, 0, 0, false},
		{-3, 0, 0, false},
		{1024, nan, 16, false},
		{1024, -0.1, 16, false},
		{1024, 1.1, 16, false},
		{1024, 0.5, nan, false},
		{1024, 0.5, inf, false},
		{1024, 0.5, -16, false},
	} {
		if err := checkLifetimes(tc.h, tc.infant, tc.infantH); (err == nil) != tc.ok {
			t.Errorf("checkLifetimes(%g, %g, %g) = %v, want ok = %v", tc.h, tc.infant, tc.infantH, err, tc.ok)
		}
	}
}
