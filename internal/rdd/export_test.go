package rdd

// PoisonRecycled switches the use-after-recycle seam (poisonRecycled) for
// the external tests and returns the switch back.
func PoisonRecycled(on bool) (restore func()) {
	was := poisonRecycled
	poisonRecycled = on
	return func() { poisonRecycled = was }
}
