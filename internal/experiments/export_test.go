package experiments

import (
	"dpspark/internal/obs"
	"dpspark/internal/rdd"
)

// RecordCell prices c the way a sweep prices its first cell, by a run
// that records its tape; the tape is nil when the run cannot be
// re-priced.
func RecordCell(c Cell) (Result, *rdd.Tape) {
	var sw sweep
	r := run(c, nil, &sw)
	return r, sw.tape
}

// RepriceCell prices c from tape t, recorded from a cell of c's shape,
// the way a sweep prices its later cells.
func RepriceCell(c Cell, t *rdd.Tape) Result {
	return run(c, nil, &sweep{first: c.Defaulted(), tape: t})
}

// SameShape reports whether a and b can share a tape.
func SameShape(a, b Cell) bool { return sameShape(a.Defaulted(), b.Defaulted()) }

// Observed prices c from tape t as RepriceCell does, or, t nil, by a replay
// as Run does, reporting to a fresh observer, which it returns.
func Observed(c Cell, t *rdd.Tape) *obs.Observer {
	o := obs.New()
	was := obsv
	obsv = o
	defer func() { obsv = was }()
	if t != nil {
		RepriceCell(c, t)
	} else {
		Run(c)
	}
	return o
}
